"""Seeded input generators: a beacon air log and a sighting log.

Both are built from the package's own broadcaster, so the inputs carry
real share schedules. A population of devices arrives over the horizon.
Each device stays for a dwell time drawn uniformly from a range (one draw
per equal-width stratum, so the total dwell barely varies between seeds)
and is in range of ``reach`` consecutive scanners (wrapping around).
Every scanner hears every emission of a device in range independently,
with probability ``1 - loss``. The same seed gives byte-identical output.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from shardcast import beacon
from shardcast.broadcaster import TICK_S, BroadcastConfig, Broadcaster, to_ticks
from shardcast.identity import identifier_new
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams

# One air-log record: emission tick, scanner index, link-layer address
# token (17 ASCII bytes), 26-byte manufacturer data block.
AIR_RECORD = struct.Struct("<IB17s26s")


@dataclass(frozen=True)
class Population:
    devices: int
    scanners: int
    horizon: float  # seconds
    dwell: tuple[float, float]  # seconds, uniform
    loss: float
    reach: int = 1  # scanners in range of each device
    k: int = 3
    n: int = 5
    t_share: float = 2.0
    adv_interval: float = 0.1


def _visits(pop: Population, rng: RandomSource):
    """Per device: (token, identifier, emissions, scanners in range)."""
    config = BroadcastConfig(SchemeParams(pop.k, pop.n), pop.t_share, pop.adv_interval)
    lo, hi = pop.dwell
    reach = min(pop.reach, pop.scanners)
    for dev in range(pop.devices):
        dev_rng = rng.derive()
        dwell = lo + (hi - lo) * (dev + rng.random()) / pop.devices
        arrival = to_ticks((pop.horizon - dwell) * rng.random()) * TICK_S
        first = rng.randrange(pop.scanners)
        in_range = [(first + j) % pop.scanners for j in range(reach)]
        identifier = identifier_new(dev_rng)
        device = Broadcaster(identifier, config, dev_rng, start=arrival)
        yield f"d{dev}", identifier, device.emissions_before(arrival + dwell), in_range


def air_log(pop: Population, seed: int) -> tuple[list[bytes], list[bytes]]:
    """Encoded air-log records in reception order, plus the true identifiers."""
    rng = RandomSource(seed)
    heard = []
    truth = []
    for _token, identifier, emissions, in_range in _visits(pop, rng):
        truth.append(identifier)
        for emission in emissions:
            for scanner in in_range:
                if rng.random() < pop.loss:
                    continue
                tick = to_ticks(emission.t)
                frame = beacon.encode_frame(emission.share)
                heard.append((tick, scanner, emission.mac_token.encode("ascii"), frame))
    heard.sort()
    return [AIR_RECORD.pack(*rec) for rec in heard], truth


def read_air_log(data: bytes) -> list[tuple[int, int, str, bytes]]:
    return [
        (tick, scanner, mac.decode("ascii"), frame)
        for tick, scanner, mac, frame in AIR_RECORD.iter_unpack(data)
    ]


def sighting_log(pop: Population, seed: int) -> tuple[str, int, int]:
    """CSV sighting log (timestamp,device_id,scanner_id,rssi), its row count
    and its (device, scanner) pair count."""
    rng = RandomSource(seed)
    rows = []
    pairs = 0
    for token, _identifier, emissions, in_range in _visits(pop, rng):
        heard_by = set()
        for emission in emissions:
            ts = int(emission.t)
            for scanner in in_range:
                draw = rng.random()
                if draw < pop.loss:
                    continue
                # The surviving draw is uniform on [loss, 1): reuse it for RSSI.
                rssi = -40 - int(45 * (draw - pop.loss) / (1.0 - pop.loss))
                heard_by.add(scanner)
                rows.append((ts, token, f"s{scanner}", rssi))
        pairs += len(heard_by)
    rows.sort()
    lines = ["timestamp,device_id,scanner_id,rssi"]
    lines.extend(f"{ts},{dev},{scanner},{rssi}" for ts, dev, scanner, rssi in rows)
    return "\n".join(lines) + "\n", len(rows), pairs
