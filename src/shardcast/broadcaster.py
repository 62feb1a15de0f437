"""Device-side broadcast scheduling.

A device walks its share set one share per t_share slot, in a fresh
uniformly random order each cycle, emitting the current share every
advertising interval. When the cycle completes or the set expires --
whichever comes first -- the set is re-split and the link-layer address
token rotates, so frames from different generations cannot be linked.

All scheduling runs on the 625 microsecond advertising tick grid using
integer arithmetic; seconds only appear at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .identity import ShareSet, Share, shareset_generate
from .rng import RandomSource
from .shamir import SchemeParams

TICK_S = 0.000625
ADV_MIN_S = 0.020
ADV_MAX_S = 10.24


def to_ticks(seconds: float) -> int:
    return round(seconds / TICK_S)


@dataclass(frozen=True)
class BroadcastConfig:
    params: SchemeParams
    t_share: float = 5.0
    adv_interval: float = 1.0
    expiry: float | None = None  # None: one full cycle, n * t_share

    def __post_init__(self):
        if self.t_share <= 0:
            raise ValueError("t_share must be positive")
        ticks = self.adv_interval / TICK_S
        if abs(ticks - round(ticks)) > 1e-6:
            raise ValueError(f"adv_interval {self.adv_interval} is not a multiple of {TICK_S} s")
        if not ADV_MIN_S - 1e-9 <= self.adv_interval <= ADV_MAX_S + 1e-9:
            raise ValueError(f"adv_interval {self.adv_interval} outside [{ADV_MIN_S}, {ADV_MAX_S}] s")
        if self.adv_interval > self.t_share + 1e-9:
            raise ValueError("adv_interval must not exceed t_share")
        if self.expiry is not None and self.expiry <= 0:
            raise ValueError("expiry must be positive")

    @property
    def effective_expiry(self) -> float:
        return self.params.n * self.t_share if self.expiry is None else self.expiry


@dataclass(frozen=True)
class BeaconEmission:
    t: float
    share: Share
    mac_token: str
    generation: int

    def sighting_row(self, scanner_id: str, rssi: int) -> tuple[int, str, str, int]:
        """Project to the sighting-log schema (timestamp, device, scanner, rssi)."""
        return (int(self.t), self.mac_token, scanner_id, rssi)


def _mac_token(rng: RandomSource) -> str:
    """Random non-resolvable-style address: 46 random bits, top bits 00."""
    raw = bytearray(rng.randbytes(6))
    raw[0] &= 0x3F
    return ":".join(f"{b:02x}" for b in raw)


class Broadcaster:
    """Mutable broadcast state for one device."""

    def __init__(
        self,
        identifier: bytes,
        config: BroadcastConfig,
        rng: RandomSource,
        start: float = 0.0,
    ):
        self.identifier = identifier
        self.config = config
        self._rng = rng
        self._t_share_ticks = to_ticks(config.t_share)
        self._adv_ticks = to_ticks(config.adv_interval)
        self._expiry_ticks = to_ticks(config.effective_expiry)
        if self._t_share_ticks <= 0 or self._adv_ticks <= 0 or self._expiry_ticks <= 0:
            raise ValueError("t_share, adv_interval and expiry must each cover at least one tick")
        start_tick = to_ticks(start)
        self._next_emit = start_tick
        self.generation = -1
        self.share_set: ShareSet = None  # type: ignore[assignment]
        self.mac_token = ""
        self._regenerate(start_tick)

    def _regenerate(self, at_tick: int) -> None:
        self.generation += 1
        self.share_set = shareset_generate(
            self.identifier,
            self.config.params,
            self.config.effective_expiry,
            self._rng,
            created_at=at_tick * TICK_S,
            generation=self.generation,
        )
        order = list(self.share_set.shares)
        self._rng.shuffle(order)
        self._queue = order
        self._queue_pos = 1
        self._current = order[0]
        self._created_tick = at_tick
        self._slot_end = at_tick + self._t_share_ticks
        self.mac_token = _mac_token(self._rng)

    def _advance_to(self, tick: int) -> None:
        """Catch slot, cycle, and expiry boundaries up to ``tick``."""
        while True:
            expiry_at = self._created_tick + self._expiry_ticks
            boundary = min(self._slot_end, expiry_at)
            if tick < boundary:
                return
            if boundary == expiry_at:
                self._regenerate(boundary)
            elif self._queue_pos < len(self._queue):
                self._current = self._queue[self._queue_pos]
                self._queue_pos += 1
                self._slot_end += self._t_share_ticks
            else:
                self._regenerate(boundary)

    def tick(self, now: float) -> list[BeaconEmission]:
        """Emit one beacon per advertising boundary elapsed up to ``now``."""
        limit = to_ticks(now)
        out = []
        while self._next_emit <= limit:
            te = self._next_emit
            self._advance_to(te)
            out.append(BeaconEmission(te * TICK_S, self._current, self.mac_token, self.generation))
            self._next_emit = te + self._adv_ticks
        return out

    def emissions_before(self, horizon: float) -> list[BeaconEmission]:
        """Every emission with t strictly below ``horizon`` seconds."""
        limit = to_ticks(horizon) - 1
        return self.tick(limit * TICK_S)

