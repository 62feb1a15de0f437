"""Scanner-side identifier reconstruction.

Received shares accumulate in a working pool; the engine repeatedly grows
a candidate set by drawing random pool entries (skipping any whose
x-coordinate or body the candidate already holds), and whenever the
candidate reaches k members it attempts a recovery. A recovered value
whose embedded checksum verifies is a real identifier: its shares are
consumed and the run stops. A failed checksum discards the candidate and
the search continues, bounded by a per-run attempt budget.

The candidate survives between runs; shares can be evicted by age; and
receptions are deduplicated on (address token, share id, body) so hearing
the same advertisement many times adds nothing to the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import kernel
from .errors import InvalidParams
from .identity import identifier_verify
from .identity import Share
from .rng import RandomSource
from .shamir import SchemeParams


@dataclass(frozen=True)
class ReceivedShare:
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


def complementary_id_sets(params: SchemeParams) -> list[tuple[int, ...]]:
    """Every k-subset of share ids 1..n that could complete a recovery."""
    return list(combinations(range(1, params.n + 1), params.k))


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
    if m < 1:
        raise InvalidParams("need at least one device")
    k, n = params.k, params.n
    total = 0.0
    for r in range(m):
        pool = m * n - k * r
        total += pool**k / ((m - r) * n**k)
    return total / m


def default_max_tries(params: SchemeParams, m: int) -> int:
    """Per-run attempt budget: ten times the expected per-recovery cost."""
    return 10 * math.ceil(expected_tries(params, m))


class Reconstructor:
    """Reconstruction state for one scanner."""

    def __init__(
        self,
        params: SchemeParams,
        rng: RandomSource,
        max_tries: int | None = None,
        group_by_mac: bool = False,
        max_share_age: float | None = None,
    ):
        self.params = params
        self.max_tries = max_tries
        self.group_by_mac = group_by_mac
        self.max_share_age = max_share_age
        self._rng = rng
        self._pool: list[ReceivedShare] = []
        self._seen: set[tuple[str, int, bytes]] = set()
        self._id_counts: dict[int, int] = {}
        self._cand: list[ReceivedShare] = []
        self._cand_ids: set[int] = set()
        self._cand_bodies: set[bytes] = set()
        self.recovered: list[RecoveredIdentity] = []
        self.total_tries = 0
        self.shares_consumed = 0

    # -- pool bookkeeping ------------------------------------------------

    def _pool_add(self, entry: ReceivedShare) -> None:
        self._pool.append(entry)
        sid = entry.share.share_id
        self._id_counts[sid] = self._id_counts.get(sid, 0) + 1

    def _pool_remove(self, gone: set[int]) -> None:
        """Drop pool entries by identity (set of id() values)."""
        kept = []
        for entry in self._pool:
            if id(entry) in gone:
                sid = entry.share.share_id
                left = self._id_counts[sid] - 1
                if left:
                    self._id_counts[sid] = left
                else:
                    del self._id_counts[sid]
            else:
                kept.append(entry)
        self._pool = kept

    def _clear_candidate(self) -> None:
        self._cand.clear()
        self._cand_ids.clear()
        self._cand_bodies.clear()

    def _drop_from_candidate(self, gone: set[int]) -> None:
        if any(id(entry) in gone for entry in self._cand):
            survivors = [entry for entry in self._cand if id(entry) not in gone]
            self._clear_candidate()
            for entry in survivors:
                self._cand.append(entry)
                self._cand_ids.add(entry.share.share_id)
                self._cand_bodies.add(entry.share.body)

    def evict_stale(self, now: float) -> int:
        """Drop pool shares older than max_share_age; returns the count."""
        if self.max_share_age is None:
            return 0
        cutoff = now - self.max_share_age
        gone = {id(entry) for entry in self._pool if entry.received_at < cutoff}
        if gone:
            self._drop_from_candidate(gone)
            for entry in self._pool:
                if id(entry) in gone:
                    self._seen.discard(entry.key)
            self._pool_remove(gone)
        return len(gone)

    def add_share(self, entry: ReceivedShare) -> bool:
        """Admit one reception into the pool; False when it is a duplicate."""
        if entry.key in self._seen:
            return False
        self._seen.add(entry.key)
        self._pool_add(entry)
        return True

    def pool_entries(self) -> tuple[ReceivedShare, ...]:
        """Snapshot of the unconsumed pool."""
        return tuple(self._pool)

    # -- the search loop -------------------------------------------------

    def _compatible(self, entry: ReceivedShare) -> bool:
        if entry.share.share_id in self._cand_ids:
            return False
        if entry.share.body in self._cand_bodies:
            return False
        if self.group_by_mac and self._cand and entry.mac_token != self._cand[0].mac_token:
            return False
        return True

    def _grow(self, entry: ReceivedShare) -> None:
        self._cand.append(entry)
        self._cand_ids.add(entry.share.share_id)
        self._cand_bodies.add(entry.share.body)

    def _submit(self, now: float, tries: int) -> RecoveredIdentity | None:
        xs = bytes(entry.share.share_id for entry in self._cand)
        packed = b"".join(entry.share.body for entry in self._cand)
        value = kernel.recover_secret(xs, packed)
        if not identifier_verify(value):
            self._clear_candidate()
            return None
        # Consumed shares stay in the seen-set: re-hearing them must not
        # re-open a finished recovery.
        sources = tuple(self._cand)
        gone = {id(entry) for entry in sources}
        self._pool_remove(gone)
        self._clear_candidate()
        self.shares_consumed += len(sources)
        hit = RecoveredIdentity(value, now, tries, sources)
        self.recovered.append(hit)
        return hit

    def run(self, now: float, budget: int | None = None) -> RecoveredIdentity | None:
        """One reconstruction run: search until a recovery, a dead pool, or
        the attempt budget; at most one identifier comes out."""
        if budget is None:
            budget = self.max_tries
        k = self.params.k
        tries = 0
        rejects = 0
        dead_ends = 0
        while budget is None or tries < budget:
            if len(self._pool) < k or len(self._id_counts) < k:
                break
            if len(self._cand) == k:
                tries += 1
                self.total_tries += 1
                hit = self._submit(now, tries)
                if hit is not None:
                    return hit
                continue
            entry = self._pool[self._rng.randrange(len(self._pool))]
            if self._compatible(entry):
                # Note: dead_ends stays; a fresh candidate always accepts
                # its first draw, so resetting here would disable the
                # two-dead-ends exit and an unbudgeted run could spin
                # forever on an unsatisfiable pool.
                self._grow(entry)
                rejects = 0
                continue
            rejects += 1
            if rejects > 4 * len(self._pool) + 16:
                # Strong evidence the candidate cannot grow; confirm by scan.
                rejects = 0
                if any(self._compatible(other) for other in self._pool):
                    continue
                self._clear_candidate()
                dead_ends += 1
                if dead_ends >= 2:
                    break
        return None

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
            identifiers_recovered=len(self.recovered),
            total_tries=self.total_tries,
            shares_consumed=self.shares_consumed,
            shares_remaining=len(self._pool),
        )

