"""Discrete-event broadcast/reception simulation.

Devices emit beacons from their own randomized clock phase; each scanner
hears an emission when it falls inside the scanner's scan window and
survives an independent loss draw. Received shares feed scanner-local
reconstruction state either per cycle (default: shares buffer up and the
search runs at share-cycle boundaries, which is the regime the attempt
statistics are defined over) or per arrival (every new share triggers a
budgeted search immediately).

Everything is deterministic for a given seed: device phases, share
orders, address tokens, loss draws, and candidate draws all derive from
one master stream.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Iterable, TextIO

from .broadcaster import BroadcastConfig, Broadcaster, TICK_S, to_ticks
from .errors import EmptyConfigList, ParseError
from .identity import identifier_new
from .reconstructor import (
    ReceivedShare,
    ReconstructionReport,
    Reconstructor,
    default_max_tries,
)
from .rng import RandomSource
from .shamir import SchemeParams

SCAN_MODES = {
    "continuous": (1.0, 1.0),
    "balanced": (2.0, 3.0),
    "low_power": (0.5, 5.0),
}

RECON_MODES = ("cycle", "arrival")


def scan_window_params(mode: str) -> tuple[float, float]:
    """(window_s, interval_s) for a scan mode name; custom:W:I supported."""
    if mode in SCAN_MODES:
        return SCAN_MODES[mode]
    if mode.startswith("custom:"):
        parts = mode.split(":")
        if len(parts) == 3:
            window, interval = float(parts[1]), float(parts[2])
            if 0 < window <= interval:
                return (window, interval)
    raise ValueError(f"unknown scan mode {mode!r}")


@dataclass(frozen=True)
class SimConfig:
    params: SchemeParams
    m_devices: int = 1
    scanners: int = 1
    t_share: float = 5.0
    adv_interval: float = 1.0
    loss_rate: float = 0.0
    scan_mode: str = "continuous"
    horizon: float | None = None  # None: one cycle, n * t_share
    seed: int = 0
    trials: int = 1
    recon_mode: str = "cycle"  # or "arrival"
    max_tries: int | None = None
    group_by_mac: bool = False
    eviction: str | float = "auto"  # "auto": expiry + one slot; "off"; or seconds

    def __post_init__(self):
        if self.m_devices < 1 or self.scanners < 1 or self.trials < 1:
            raise ValueError("m_devices, scanners and trials must be at least 1")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must lie in [0, 1)")
        if self.recon_mode not in RECON_MODES:
            raise ValueError(f"unknown recon_mode {self.recon_mode!r}")
        scan_window_params(self.scan_mode)  # validates
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def effective_horizon(self) -> float:
        return self.params.n * self.t_share if self.horizon is None else self.horizon

    def broadcast_config(self) -> BroadcastConfig:
        return BroadcastConfig(self.params, self.t_share, self.adv_interval)

    def eviction_age(self) -> float | None:
        if self.eviction == "off":
            return None
        if self.eviction == "auto":
            return self.broadcast_config().effective_expiry + self.t_share
        return float(self.eviction)


@dataclass
class SimResult:
    config: SimConfig
    reports: list[ReconstructionReport]
    recoveries: int
    total_tries: int
    mean_ntries: float
    latencies: list[float]
    p50_latency_s: float
    undetected: int
    spurious: int
    emitted: int
    received: list[int]
    slot_instances: int
    slots_received: list[int]
    identifiers: list[bytes]
    resolved_devices: set[int]


def run_simulation(config: SimConfig) -> SimResult:
    rng = RandomSource(config.seed)
    m, n, k = config.m_devices, config.params.n, config.params.k
    horizon = config.effective_horizon
    bcast = config.broadcast_config()
    t_share_ticks = to_ticks(config.t_share)

    device_seeds = [rng.getrandbits(48) for _ in range(m)]
    device_phases = [rng.randrange(t_share_ticks) * TICK_S for _ in range(m)]

    window_s, interval_s = scan_window_params(config.scan_mode)
    window_ticks, interval_ticks = to_ticks(window_s), to_ticks(interval_s)
    continuous = window_ticks >= interval_ticks
    scanner_phases = [
        0 if continuous else rng.randrange(interval_ticks) for _ in range(config.scanners)
    ]
    recon_rngs = [rng.derive() for _ in range(config.scanners)]

    # Ground truth: emissions per device, and a reverse map from the dedup
    # key of every share on air to its (device, generation).
    identifiers: list[bytes] = []
    events: list[tuple[int, int, int]] = []  # (tick, device, emission index)
    emissions_by_device: list[list] = []
    origin: dict[tuple[str, int, bytes], tuple[int, int]] = {}
    for dev in range(m):
        dev_rng = RandomSource(device_seeds[dev])
        identifier = identifier_new(dev_rng)
        identifiers.append(identifier)
        device = Broadcaster(identifier, bcast, dev_rng, start=device_phases[dev])
        emitted = device.emissions_before(horizon)
        emissions_by_device.append(emitted)
        for idx, emission in enumerate(emitted):
            events.append((to_ticks(emission.t), dev, idx))
            key = (emission.mac_token, emission.share.share_id, emission.share.body)
            origin.setdefault(key, (dev, emission.generation))
    events.sort()

    budget = config.max_tries
    if budget is None and config.recon_mode == "arrival":
        budget = default_max_tries(config.params, m)
    recons = [
        Reconstructor(
            config.params,
            recon_rngs[s],
            max_tries=budget,
            group_by_mac=config.group_by_mac,
            max_share_age=config.eviction_age(),
        )
        for s in range(config.scanners)
    ]

    received = [0] * config.scanners
    slots_hit: list[set] = [set() for _ in range(config.scanners)]
    first_audible: dict[tuple[int, int], float] = {}
    resolved: dict[tuple[int, int], float] = {}
    counted = [0] * config.scanners
    spurious = 0
    loss = config.loss_rate

    def note_recovery(scanner: int, hit) -> None:
        nonlocal spurious
        sources = {origin.get(entry.key) for entry in hit.sources}
        if len(sources) != 1 or None in sources:
            spurious += 1
            return
        ((dev, _gen),) = sources
        if identifiers[dev] != hit.identifier:
            spurious += 1
            return
        resolved.setdefault((scanner, dev), hit.completed_at)

    def feed(scanner: int, emission, tick: int, dev: int) -> None:
        received[scanner] += 1
        slots_hit[scanner].add((dev, emission.generation, emission.share.share_id))
        key = (scanner, dev)
        if key not in first_audible:
            first_audible[key] = tick * TICK_S
        entry = ReceivedShare(emission.share, emission.mac_token, tick * TICK_S)
        recon = recons[scanner]
        if config.recon_mode == "arrival":
            recon.on_share_received(entry)
            while len(recon.recovered) > counted[scanner]:
                note_recovery(scanner, recon.recovered[counted[scanner]])
                counted[scanner] += 1
        else:
            recon.evict_stale(entry.received_at)
            recon.add_share(entry)

    def sweep_cycle(scanner: int, at: float) -> None:
        recon = recons[scanner]
        recon.evict_stale(at)
        while True:
            per_device: dict[tuple[int, int], set[int]] = {}
            for entry in recon.pool_entries():
                source = origin.get(entry.key)
                if source is not None:
                    per_device.setdefault(source, set()).add(entry.share.share_id)
            if not any(len(ids) >= k for ids in per_device.values()):
                break
            hit = recon.run(at, budget=None)
            if hit is None:
                break
            note_recovery(scanner, hit)
            counted[scanner] += 1

    cycle_ticks = to_ticks(n * config.t_share)
    horizon_ticks = to_ticks(horizon)
    batch_ticks = sorted(
        {t for t in range(cycle_ticks, horizon_ticks + 1, cycle_ticks)} | {horizon_ticks}
    )
    next_batch = 0

    for tick, dev, idx in events:
        if config.recon_mode == "cycle":
            while next_batch < len(batch_ticks) and batch_ticks[next_batch] <= tick:
                at = batch_ticks[next_batch] * TICK_S
                for s in range(config.scanners):
                    sweep_cycle(s, at)
                next_batch += 1
        emission = emissions_by_device[dev][idx]
        for s in range(config.scanners):
            if not continuous:
                offset = (tick - scanner_phases[s]) % interval_ticks
                if offset >= window_ticks:
                    continue
            if loss and rng.random() < loss:
                continue
            feed(s, emission, tick, dev)
    if config.recon_mode == "cycle":
        while next_batch < len(batch_ticks):
            at = batch_ticks[next_batch] * TICK_S
            for s in range(config.scanners):
                sweep_cycle(s, at)
            next_batch += 1

    total_tries = sum(r.total_tries for r in recons)
    recoveries = sum(len(r.recovered) for r in recons)
    latencies = sorted(
        resolved[key] - first_audible[key] for key in resolved if key in first_audible
    )
    resolved_devices = {dev for (_s, dev) in resolved}
    return SimResult(
        config=config,
        reports=[r.report() for r in recons],
        recoveries=recoveries,
        total_tries=total_tries,
        mean_ntries=(total_tries / recoveries) if recoveries else math.nan,
        latencies=latencies,
        p50_latency_s=statistics.median(latencies) if latencies else math.nan,
        undetected=m - len(resolved_devices),
        spurious=spurious,
        emitted=len(events),
        received=received,
        slot_instances=len({(d, e.generation, e.share.share_id)
                            for d, ems in enumerate(emissions_by_device) for e in ems}),
        slots_received=[len(s) for s in slots_hit],
        identifiers=identifiers,
        resolved_devices=resolved_devices,
    )


@dataclass(frozen=True)
class SweepRow:
    k: int
    n: int
    nodes: int
    loss_rate: float
    scan_mode: str
    mean_ntries: float
    p50_latency_s: float
    undetected: int

    def to_line(self) -> str:
        return (
            f"{self.k}\t{self.n}\t{self.nodes}\t{self.loss_rate:g}\t{self.scan_mode}"
            f"\t{self.mean_ntries:.3f}\t{self.p50_latency_s:.3f}\t{self.undetected}"
        )


RESULTS_HEADER = "k\tn\tnodes\tloss_rate\tscan_mode\tmean_ntries\tp50_latency_s\tundetected"


def run_trials(config: SimConfig) -> tuple[SweepRow, list[SimResult]]:
    """Run config.trials seeded repetitions and pool their statistics."""
    results = [
        run_simulation(replace(config, seed=config.seed + i, trials=1))
        for i in range(config.trials)
    ]
    tries = sum(r.total_tries for r in results)
    recoveries = sum(r.recoveries for r in results)
    latencies = sorted(x for r in results for x in r.latencies)
    row = SweepRow(
        k=config.params.k,
        n=config.params.n,
        nodes=config.m_devices,
        loss_rate=config.loss_rate,
        scan_mode=config.scan_mode,
        mean_ntries=(tries / recoveries) if recoveries else math.nan,
        p50_latency_s=statistics.median(latencies) if latencies else math.nan,
        undetected=sum(r.undetected for r in results),
    )
    return row, results


def sweep(configs: Iterable[SimConfig]) -> list[SweepRow]:
    """One pooled results row per config."""
    items = list(configs)
    if not items:
        raise EmptyConfigList("sweep needs at least one configuration")
    return [run_trials(c)[0] for c in items]


def write_results(rows: Iterable[SweepRow], out: TextIO) -> None:
    out.write(RESULTS_HEADER + "\n")
    for row in rows:
        out.write(row.to_line() + "\n")


# -- config files --------------------------------------------------------

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_schemes(text: str, line: int) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if ":" not in item:
            raise ParseError(line, f"scheme {item!r} is not k:n")
        k_text, n_text = item.split(":", 1)
        try:
            out.append((int(k_text), int(n_text)))
        except ValueError as exc:
            raise ParseError(line, f"scheme {item!r} is not k:n") from exc
    return out


def _scan_mode(text: str) -> str:
    scan_window_params(text)  # validates
    return text


def _recon_mode(text: str) -> str:
    if text not in RECON_MODES:
        raise ValueError(f"unknown recon_mode {text!r}")
    return text


def _eviction(text: str) -> str | float:
    return text if text in ("auto", "off") else float(text)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"{value} is not positive and finite")
    return value


def _loss_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{value} is outside [0, 1)")
    return value


def load_sim_configs(path: str) -> list[SimConfig]:
    """Parse a key=value config file into one config per scheme/nodes pair.

    ``scheme`` (k:n, comma list allowed) and ``nodes`` (comma list allowed)
    expand as a grid in file order; every other key is a scalar.
    """
    raw: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(lineno, f"expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            raw[key.strip().lower()] = (value.strip(), lineno)

    def take(key: str, default=None):
        return raw.pop(key, (default, 0))

    schemes_text, schemes_line = take("scheme")
    k_text, k_line = take("k")
    n_text, n_line = take("n")
    if schemes_text is not None:
        schemes = _parse_schemes(schemes_text, schemes_line)
    elif k_text is not None and n_text is not None:
        try:
            schemes = [(int(k_text), int(n_text))]
        except ValueError as exc:
            raise ParseError(max(k_line, n_line), "k and n must be integers") from exc
    else:
        raise ParseError(1, "config needs either scheme=k:n or k= and n=")

    nodes_text, nodes_line = take("nodes", "1")
    try:
        nodes_list = [_count(x) for x in nodes_text.split(",")]
    except ValueError as exc:
        raise ParseError(nodes_line or 1, f"bad nodes list {nodes_text!r}") from exc

    lines: dict[str, int] = {}

    def scalar(key: str, default, conv):
        value, lineno = take(key, None)
        if value is None:
            return default
        lines[key] = lineno
        try:
            return conv(value)
        except (ValueError, KeyError) as exc:
            raise ParseError(lineno, f"bad value for {key}: {value!r}") from exc

    scanners = scalar("scanners", 1, _count)
    t_share = scalar("t_share", 5.0, _positive)
    adv_interval = scalar("adv_interval", 1.0, float)
    loss_rate = scalar("loss_rate", 0.0, _loss_rate)
    scan_mode = scalar("scan_mode", "continuous", _scan_mode)
    horizon = scalar("horizon", None, _positive)
    seed = scalar("seed", 0, int)
    trials = scalar("trials", 1, _count)
    recon_mode = scalar("recon_mode", "cycle", _recon_mode)
    max_tries = scalar("max_tries", None, int)
    group_by_mac = scalar("group_by_mac", False, lambda v: _BOOL[v.lower()])
    eviction = scalar("eviction", "auto", _eviction)
    if raw:
        key = next(iter(raw))
        raise ParseError(raw[key][1], f"unknown config key {key!r}")

    configs = []
    for k, n in schemes:
        for nodes in nodes_list:
            configs.append(
                SimConfig(
                    params=SchemeParams(k, n),
                    m_devices=nodes,
                    scanners=scanners,
                    t_share=t_share,
                    adv_interval=adv_interval,
                    loss_rate=loss_rate,
                    scan_mode=scan_mode,
                    horizon=horizon,
                    seed=seed,
                    trials=trials,
                    recon_mode=recon_mode,
                    max_tries=max_tries,
                    group_by_mac=group_by_mac,
                    eviction=eviction,
                )
            )
    try:
        configs[0].broadcast_config()  # the advertising-interval rules
    except (ValueError, OverflowError) as exc:  # OverflowError: adv_interval = inf
        line = lines.get("adv_interval") or lines["t_share"]
        raise ParseError(line, f"bad adv_interval: {exc}") from exc
    return configs
