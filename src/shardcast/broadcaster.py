"""Device-side broadcast scheduling.

A device airs one share per t_share slot, in a fresh uniformly random
order each generation, emitting the current share every advertising
interval. A generation lasts G = min(n * t_share, expiry): a full cycle,
or less when the set expires first. Then the identifier is re-split and
the link-layer address token rotates, so frames from different
generations cannot be linked.

The schedule is arithmetic on the 625 microsecond advertising tick grid:
a beacon at tick te falls in generation (te - start) // G, and in slot
((te - start) % G) // t_share of it. Seconds only appear at the API
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

from .errors import BadLength, InvalidConfig
from .identity import IDENTIFIER_LEN, Share
from .rng import RandomSource
from .shamir import SchemeParams, split

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
        # A cycle, n slots of t_share, needs a finite tick count.
        if not 0 < self.params.n * self.t_share / TICK_S < math.inf:
            raise InvalidConfig(f"t_share {self.t_share} is not positive with a finite cycle",
                                "t_share")
        # Every layer counts slots and advertising in whole ticks.
        for name in ("t_share", "adv_interval"):
            value = getattr(self, name)
            ticks = value / TICK_S
            if not math.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-6:
                raise InvalidConfig(f"{name} {value} is not a multiple of {TICK_S} s", name)
        if not ADV_MIN_S - 1e-9 <= self.adv_interval <= ADV_MAX_S + 1e-9:
            raise InvalidConfig(
                f"adv_interval {self.adv_interval} outside [{ADV_MIN_S}, {ADV_MAX_S}] s",
                "adv_interval",
            )
        if self.adv_interval > self.t_share + 1e-9:
            raise InvalidConfig("adv_interval must not exceed t_share", "adv_interval", "t_share")
        # The rules above keep t_share and adv_interval above one tick; expiry
        # needs its own check, and a finite tick count to round.
        if self.expiry is not None and not (
            0 < self.expiry / TICK_S < math.inf and to_ticks(self.expiry) >= 1
        ):
            raise InvalidConfig(f"expiry must be a finite count of at least one {TICK_S} s tick",
                                "expiry")

    @property
    def effective_expiry(self) -> float:
        return self.params.n * self.t_share if self.expiry is None else self.expiry


class BeaconEmission(NamedTuple):
    t: float
    share: Share
    mac_token: str
    generation: int

    def sighting_row(self, scanner_id: str, rssi: int) -> tuple[int, str, str, int]:
        """Project to the sighting-log schema (timestamp, device, scanner, rssi)."""
        return (int(self.t), self.mac_token, scanner_id, rssi)


class BeaconRun(NamedTuple):
    """Consecutive beacons of one share: one at every advertising interval
    in ``range(first_tick, end_tick, adv_ticks)``."""

    first_tick: int
    end_tick: int
    share: Share
    mac_token: str
    generation: int


# Build a BeaconEmission or a BeaconRun from a tuple of its fields in C; a
# NamedTuple's own __new__ is a Python function, and the schedule makes one
# per beacon or run.
_new_emission = partial(tuple.__new__, BeaconEmission)
_new_run = partial(tuple.__new__, BeaconRun)


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
        if len(identifier) != IDENTIFIER_LEN:
            raise BadLength(f"identifier must be {IDENTIFIER_LEN} bytes, got {len(identifier)}")
        self.identifier = identifier
        self.config = config
        self._rng = rng
        self._t_share_ticks = to_ticks(config.t_share)
        self._adv_ticks = to_ticks(config.adv_interval)
        self._generation_ticks = min(
            config.params.n * self._t_share_ticks, to_ticks(config.effective_expiry)
        )
        self._start = self._next_emit = to_ticks(start)
        self.generation = -1
        self._regenerate()

    def _regenerate(self) -> None:
        """Draw the next generation: a fresh split in random order, and an address."""
        self.generation += 1
        pairs = split(self.identifier, self.config.params, self._rng)
        order = [Share(share_id, body) for share_id, body in pairs]
        self._rng.shuffle(order)
        self._order = order
        self.mac_token = _mac_token(self._rng)

    def _runs(self, limit: int) -> list[BeaconRun]:
        """The beacons after the last one emitted, up to tick ``limit``, as runs.

        One run per stretch of beacons that carry the same share; within a
        call, consecutive runs carry different shares and no run is empty.
        """
        out = []
        append = out.append
        adv, slot, span = self._adv_ticks, self._t_share_ticks, self._generation_ticks
        te = self._next_emit
        while te <= limit:
            generation, offset = divmod(te - self._start, span)
            # Every generation up to this beacon's is drawn, in order, even
            # one too short to air a beacon.
            while self.generation < generation:
                self._regenerate()
            i = offset // slot
            # The slot ends after t_share, or when the generation does.
            end = min(te - offset + min((i + 1) * slot, span), limit + 1)
            append(_new_run((te, end, self._order[i], self.mac_token, generation)))
            te += (end - te + adv - 1) // adv * adv  # the first beacon at or after end
        self._next_emit = te
        return out

    def runs_before(self, horizon: float) -> list[BeaconRun]:
        """Every beacon with t strictly below ``horizon`` seconds, as runs."""
        return self._runs(to_ticks(horizon) - 1)

    def tick(self, now: float) -> list[BeaconEmission]:
        """Emit one beacon per advertising boundary elapsed up to ``now``."""
        adv = self._adv_ticks
        out = []
        for first, end, share, mac, generation in self._runs(to_ticks(now)):
            times = map(TICK_S.__mul__, range(first, end, adv))
            out += map(_new_emission, zip(times, repeat(share), repeat(mac), repeat(generation)))
        return out

    def emissions_before(self, horizon: float) -> list[BeaconEmission]:
        """Every emission with t strictly below ``horizon`` seconds."""
        limit = to_ticks(horizon) - 1
        return self.tick(limit * TICK_S)
