"""Scanner-side identifier reconstruction.

Received shares accumulate in a working pool; a run repeatedly grows a
candidate set by drawing random pool entries (skipping any whose share id
the candidate already holds), and whenever the candidate reaches k members
it attempts a recovery. A recovered value whose embedded checksum verifies
is a real identifier: its shares are consumed and the run stops. A failed
checksum discards the candidate and the search continues; each one counts
against a per-run attempt budget.

An attempt tests the checksum without interpolating. The value at x=0
is the XOR of the weighted bodies u_i = w_i*b_i (w_i the Lagrange
weights of the candidate's x-set). Scaling by a GF(2^8) constant is
GF(2)-linear and CRC-32 is affine over GF(2), so crc32 of the value's
first 12 bytes is the XOR of the crc32(u_i[:12]), plus crc32 of 12 zero
bytes when k is even. The value verifies exactly when the XOR of the
syndrome terms s_i = crc32(u_i[:12]) ^ u_i[12:] equals that constant
(k even) or 0 (k odd). A run memoises u_i and s_i by (weight, body) in
a dict that it drops on return, so most attempts cost k lookups and
XORs. The same candidates pass as under interpolate-then-verify,
including the rare mixed-device ones the 32-bit checksum lets through.

The candidate lives for one run; only the pool persists between runs.
Shares can be evicted by age, and receptions are deduplicated on
(address token, share id, body), so hearing the same advertisement many
times adds nothing to the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple
from zlib import crc32

from .errors import InvalidConfig, InvalidParams
from .identity import IDENTIFIER_LEN, RANDOM_LEN, Share, identifier_verify
from .kernel import MUL, weights_by_x
from .rng import RandomSource
from .shamir import SchemeParams


class ReceivedShare(NamedTuple):
    share: Share
    mac_token: str
    received_at: float

    @property
    def key(self) -> tuple[str, int, bytes]:
        return (self.mac_token, self.share.share_id, self.share.body)


@dataclass(frozen=True)
class RecoveredIdentity:
    identifier: bytes
    completed_at: float
    tries: int  # attempts spent in the run that produced this recovery
    sources: tuple[ReceivedShare, ...]


@dataclass(frozen=True)
class ReconstructionReport:
    identifiers_recovered: int
    total_tries: int
    shares_consumed: int
    shares_remaining: int

    def to_line(self) -> str:
        return (
            f"{self.identifiers_recovered}\t{self.total_tries}"
            f"\t{self.shares_consumed}\t{self.shares_remaining}"
        )


# The syndrome of a verifying candidate of k members: crc32 of twelve zero
# bytes for even k, 0 for odd k.
_SYNDROME_TARGETS = (crc32(bytes(RANDOM_LEN)), 0)
_VALUE_MASK = (1 << 8 * IDENTIFIER_LEN) - 1  # the low 128 bits of a memo term


def _syndrome_target(k: int) -> int:
    return _SYNDROME_TARGETS[k & 1]


def _candidate_value(bodies: dict[int, bytes], memo: dict[tuple[int, bytes], int],
                     target: int) -> bytes | None:
    """The candidate's value at x=0 when its checksum syndrome is ``target``.

    ``bodies`` maps each member's share id to its body. ``memo`` maps
    (weight, body) to one int: the weighted body u = weight*body in the low
    128 bits and its syndrome term crc32(u[:12]) ^ u[12:] above them, so one
    XOR per member sums both. The caller decides how long it lives.
    """
    weights = weights_by_x(bytes(sorted(bodies)))
    total = 0
    for x, body in bodies.items():
        key = (weights[x], body)
        term = memo.get(key)
        if term is None:
            product = body.translate(MUL[key[0]])
            u = int.from_bytes(product, "big")
            term = memo[key] = (crc32(product[:RANDOM_LEN]) ^ (u & 0xFFFFFFFF)) << 128 | u
        total ^= term
    if total >> 128 != target:
        return None
    return (total & _VALUE_MASK).to_bytes(IDENTIFIER_LEN, "big")


def estimate_search_space(m: int, params: SchemeParams) -> float:
    """Closed-form size estimate of the combination search at density m.

    Evaluated exactly as published; for some parameter points the
    denominator term m*n - k*n is zero and ZeroDivisionError propagates.
    The simulator is the ground truth for attempt counts -- see
    `expected_tries` for the calibrated budget model.
    """
    k, n = params.k, params.n
    denominator = m * n - k * n
    if denominator == 0:
        raise ZeroDivisionError("estimate undefined where m*n equals k*n")
    total = 0.0
    for j in range(m):
        total += ((m * n - k * j) / denominator) * (m - j) ** (k - 1)
    return total


def expected_tries(params: SchemeParams, m: int) -> float:
    """Mean attempts per recovery when m full share sets share one pool.

    Mean-field model of the candidate draw: with r sets already consumed,
    the pool holds m*n - k*r shares of which m - r sets are complete, and
    an attempt succeeds with probability (m-r) * n^k / pool^k. Validated
    against simulation to within a few percent at the densities used here.
    """
    if not (isinstance(m, int) and m >= 1):
        raise InvalidParams(f"need a whole number of devices, at least one, got {m!r}")
    k, n = params.k, params.n
    total = 0.0
    for r in range(m):
        pool = m * n - k * r
        total += pool**k / ((m - r) * n**k)
    return total / m


def default_max_tries(params: SchemeParams, m: int) -> int:
    """Per-run attempt budget: ten times the expected per-recovery cost."""
    return 10 * math.ceil(expected_tries(params, m))


def check_max_tries(max_tries: int | None) -> None:
    """Raise InvalidConfig unless the budget is None or an int of at least 1.

    A run stops when its tries equal the budget, so any other number would
    never stop it.
    """
    if max_tries is not None and not (isinstance(max_tries, int) and max_tries >= 1):
        raise InvalidConfig(f"max_tries {max_tries!r} must be an integer of at least 1",
                            "max_tries")


class Reconstructor:
    """Reconstruction state for one scanner.

    It keeps the pool (one list of ReceivedShare entries, in admission
    order), the seen-set of dedup keys, the pool's oldest reception time and
    counters. A hit is returned by `run` and not kept; `identifiers_recovered`
    counts the hits.
    """

    def __init__(
        self,
        params: SchemeParams,
        rng: RandomSource,
        *,
        max_tries: int | None = None,
        max_share_age: float | None = None,
    ):
        check_max_tries(max_tries)
        if max_share_age is not None and not (
            isinstance(max_share_age, (int, float)) and max_share_age >= 0
        ):
            raise InvalidConfig(f"max_share_age {max_share_age!r} must be a non-negative time",
                                "max_share_age")
        self.params = params
        self.max_tries = max_tries
        self.max_share_age = max_share_age
        self._rng = rng
        self._pool: list[ReceivedShare] = []
        self._oldest = math.inf  # smallest received_at in the pool
        self._seen: set[tuple[str, int, bytes]] = set()
        self.identifiers_recovered = 0
        self.total_tries = 0
        self.total_draws = 0  # pool indices drawn by the search
        self.shares_consumed = 0

    # -- pool bookkeeping ------------------------------------------------

    def evict_stale(self, now: float) -> int:
        """Drop pool shares older than max_share_age; returns the count."""
        if self.max_share_age is None:
            return 0
        try:
            cutoff = now - self.max_share_age
        except TypeError:  # checked here, where a number costs nothing more
            raise InvalidConfig(f"now {now!r} must be a number of seconds", "now") from None
        if self._oldest >= cutoff:  # nothing is stale
            return 0
        kept = []
        oldest = math.inf
        for entry in self._pool:
            if entry.received_at < cutoff:
                self._seen.discard(entry.key)
            else:
                kept.append(entry)
                if entry.received_at < oldest:
                    oldest = entry.received_at
        gone = len(self._pool) - len(kept)
        self._pool = kept
        self._oldest = oldest
        return gone

    def add_share(self, entry: ReceivedShare) -> bool:
        """Admit one reception into the pool; False when it is a duplicate."""
        # entry.key, without the property call: most receptions are repeats.
        share = entry.share
        key = (entry.mac_token, share.share_id, share.body)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._pool.append(entry)
        if entry.received_at < self._oldest:
            self._oldest = entry.received_at
        return True

    def pool_entries(self) -> tuple[ReceivedShare, ...]:
        """Snapshot of the unconsumed pool."""
        return tuple(self._pool)

    # -- the search loop -------------------------------------------------

    def _consume(self, identifier: bytes, now: float, tries: int,
                 sources: tuple[ReceivedShare, ...]) -> RecoveredIdentity:
        # Consumed shares stay in the seen-set: re-hearing them must not
        # re-open a finished recovery.
        gone = {id(entry) for entry in sources}
        self._pool = [entry for entry in self._pool if id(entry) not in gone]
        self._oldest = min((entry.received_at for entry in self._pool), default=math.inf)
        self.shares_consumed += len(sources)
        self.identifiers_recovered += 1
        return RecoveredIdentity(identifier, now, tries, sources)

    def _pool_can_recover(self, memo: dict[tuple[int, bytes], int]) -> bool:
        """True when some k-subset of the pool with distinct ids verifies."""
        k = self.params.k
        target = _syndrome_target(k)
        for group in combinations(self._pool, k):
            bodies = {entry.share.share_id: entry.share.body for entry in group}
            if len(bodies) < k:
                continue
            value = _candidate_value(bodies, memo, target)
            if value is not None and identifier_verify(value):
                return True
        return False

    def run(self, now: float, budget: int | None = None) -> RecoveredIdentity | None:
        """One reconstruction run: search until a recovery, a dead pool, or
        the attempt budget; returns the hit, or None.

        A candidate is any k pool entries with distinct share ids, drawn in
        random order. A try that does not verify counts against the attempt
        budget and starts a fresh candidate. An unbudgeted run always
        returns: once its tries reach the number of k-subsets of the pool,
        it checks every subset with distinct ids once, without drawing, and
        stops when none verifies.
        """
        if budget is None:
            budget = self.max_tries
        else:
            check_max_tries(budget)
        k = self.params.k
        pool = self._pool
        size = len(pool)
        # The pool only changes on a hit, which ends the run. With k distinct
        # ids in it, some entry extends every candidate of fewer than k
        # members, so every candidate fills and a run cannot stall.
        if size < k or len({entry[0].share_id for entry in pool}) < k:
            return None
        exhaust_at = math.comb(size, k) if budget is None else -1
        # Random.randrange(size) without its call layers: draw bit_length
        # bits and redraw while the value is out of range. The index stream
        # is the same; a test pins it against randrange.
        getrandbits = self._rng.getrandbits
        bits = size.bit_length()
        target = _syndrome_target(k)
        memo: dict[tuple[int, bytes], int] = {}  # see _candidate_value
        # The candidate: its entries, and their bodies by share id in draw order.
        cand: list[ReceivedShare] = []
        cand_bodies: dict[int, bytes] = {}
        filled = 0
        tries = 0
        draws = 0
        hit = None
        while True:
            if filled < k:
                index = getrandbits(bits)
                while index >= size:
                    index = getrandbits(bits)
                draws += 1
                entry = pool[index]
                share = entry[0]  # entry.share, without the field descriptor's call
                sid = share.share_id
                if sid not in cand_bodies:
                    cand.append(entry)
                    cand_bodies[sid] = share.body
                    filled += 1
                continue
            tries += 1
            value = _candidate_value(cand_bodies, memo, target)
            if value is not None and identifier_verify(value):
                hit = self._consume(value, now, tries, tuple(cand))
                break
            if tries == budget:
                break
            if tries == exhaust_at and not self._pool_can_recover(memo):
                break
            cand = []
            cand_bodies = {}
            filled = 0
        self.total_tries += tries
        self.total_draws += draws
        return hit

    def on_share_received(self, entry: ReceivedShare) -> list[bytes]:
        """Admit one reception and, when it is new, run the search.

        Returns the identifiers recovered by this call (empty or one).
        """
        now = entry.received_at
        self.evict_stale(now)
        if not self.add_share(entry):
            return []
        hit = self.run(now)
        return [hit.identifier] if hit is not None else []

    # -- reporting -------------------------------------------------------

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def report(self) -> ReconstructionReport:
        return ReconstructionReport(
            identifiers_recovered=self.identifiers_recovered,
            total_tries=self.total_tries,
            shares_consumed=self.shares_consumed,
            shares_remaining=len(self._pool),
        )

