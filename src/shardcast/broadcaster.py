"""Device-side broadcast scheduling.

A device airs one share per t_share slot, in a fresh uniformly random
order each generation, emitting the current share every advertising
interval. A generation is one cycle of n slots. Then the identifier is
re-split and the link-layer address token rotates, so frames from
different generations cannot be linked.

The schedule is arithmetic on the 625 microsecond advertising tick grid:
a beacon at tick te falls in generation (te - start) // C, for a cycle
of C = n * t_share ticks, and in slot ((te - start) % C) // t_share of
it. Seconds only appear at the API boundary, through ``to_ticks``.
"""

from __future__ import annotations

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


def to_ticks(seconds: float, name: str = "seconds") -> int:
    """Seconds as a whole count of ticks; ``InvalidConfig`` naming ``name``
    when ``seconds`` is not a number or the count is not finite (an
    overflow, an infinity or NaN)."""
    try:
        return round(seconds / TICK_S)
    except (OverflowError, ValueError):
        raise InvalidConfig(f"{name} {seconds} s has no finite tick count", name) from None
    except TypeError:
        raise InvalidConfig(f"{name} {seconds!r} must be a number of seconds", name) from None


@dataclass(frozen=True)
class BroadcastConfig:
    params: SchemeParams
    t_share: float = 5.0
    adv_interval: float = 1.0

    def __post_init__(self):
        if not isinstance(self.params, SchemeParams):
            raise InvalidConfig(f"params {self.params!r} must be a SchemeParams", "params")
        for name in ("t_share", "adv_interval"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)):
                raise InvalidConfig(f"{name} {value!r} must be a number of seconds", name)
        # A cycle, n slots of t_share, needs a positive, finite tick count.
        if to_ticks(self.params.n * self.t_share, "t_share") < 1:
            raise InvalidConfig(f"t_share {self.t_share} is not positive", "t_share")
        # Every layer counts slots and advertising in whole ticks.
        for name in ("t_share", "adv_interval"):
            value = getattr(self, name)
            if abs(value / TICK_S - to_ticks(value, name)) > 1e-6:
                raise InvalidConfig(f"{name} {value} is not a multiple of {TICK_S} s", name)
        if not ADV_MIN_S - 1e-9 <= self.adv_interval <= ADV_MAX_S + 1e-9:
            raise InvalidConfig(
                f"adv_interval {self.adv_interval} outside [{ADV_MIN_S}, {ADV_MAX_S}] s",
                "adv_interval",
            )
        if self.adv_interval > self.t_share + 1e-9:
            raise InvalidConfig("adv_interval must not exceed t_share", "adv_interval", "t_share")


class BeaconEmission(NamedTuple):
    t: float
    share: Share
    mac_token: str
    generation: int


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
        self._cycle_ticks = config.params.n * self._t_share_ticks
        self._start = self._next_emit = to_ticks(start, "start")
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
        adv, slot, cycle = self._adv_ticks, self._t_share_ticks, self._cycle_ticks
        te = self._next_emit
        while te <= limit:
            generation, offset = divmod(te - self._start, cycle)
            # A cycle spans at least one advertising interval, so the next
            # beacon is at most one generation on.
            if self.generation < generation:
                self._regenerate()
            i = offset // slot
            end = min(te - offset + (i + 1) * slot, limit + 1)
            append(_new_run((te, end, self._order[i], self.mac_token, generation)))
            te += (end - te + adv - 1) // adv * adv  # the first beacon at or after end
        self._next_emit = te
        return out

    def runs_before(self, horizon: float) -> list[BeaconRun]:
        """Every beacon with t strictly below ``horizon`` seconds, as runs."""
        return self._runs(to_ticks(horizon, "horizon") - 1)

    def tick(self, now: float) -> list[BeaconEmission]:
        """Emit one beacon per advertising boundary elapsed up to ``now``."""
        adv = self._adv_ticks
        out = []
        for first, end, share, mac, generation in self._runs(to_ticks(now, "now")):
            times = map(TICK_S.__mul__, range(first, end, adv))
            out += map(_new_emission, zip(times, repeat(share), repeat(mac), repeat(generation)))
        return out

    def emissions_before(self, horizon: float) -> list[BeaconEmission]:
        """Every emission with t strictly below ``horizon`` seconds."""
        return self.tick((to_ticks(horizon, "horizon") - 1) * TICK_S)
