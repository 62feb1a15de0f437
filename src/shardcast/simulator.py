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
from .errors import EmptyConfigList, InvalidConfig, InvalidParams, ParseError
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
        try:
            window, interval = map(float, mode.removeprefix("custom:").split(":"))
        except ValueError:  # not two numbers
            window = interval = math.nan
        if 0 < window <= interval < math.inf:
            # The simulator scans whole ticks, and interval >= window.
            if to_ticks(window) < 1:
                raise InvalidConfig(
                    f"scan window {window} s is shorter than one {TICK_S} s tick", "scan_mode"
                )
            return (window, interval)
    raise InvalidConfig(f"unknown scan mode {mode!r}", "scan_mode")


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
        for name in ("m_devices", "scanners", "trials"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be at least 1", name)
        if not 0.0 <= self.loss_rate < 1.0:
            raise InvalidConfig("loss_rate must lie in [0, 1)", "loss_rate")
        if self.recon_mode not in RECON_MODES:
            raise InvalidConfig(f"unknown recon_mode {self.recon_mode!r}", "recon_mode")
        scan_window_params(self.scan_mode)  # validates
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise InvalidConfig("horizon must be positive and finite", "horizon")
        if self.max_tries is not None and self.max_tries < 1:
            raise InvalidConfig("max_tries must be at least 1", "max_tries")
        if self.eviction not in ("auto", "off") and (
            isinstance(self.eviction, str) or not 0 <= self.eviction < math.inf
        ):
            raise InvalidConfig("eviction must be auto, off, or finite seconds >= 0", "eviction")
        self.broadcast_config()  # the advertising rules

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

    arrival = config.recon_mode == "arrival"
    budget = config.max_tries
    if budget is None and arrival:
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

    def feed(scanner: int, entry: ReceivedShare, emission, dev: int) -> None:
        now = entry.received_at
        received[scanner] += 1
        recon = recons[scanner]
        recon.evict_stale(now)
        if not recon.add_share(entry):
            return  # this scanner admitted the same key earlier and noted it then
        slots_hit[scanner].add((dev, emission.generation, emission.share.share_id))
        first_audible.setdefault((scanner, dev), now)
        if arrival:
            hit = recon.run(now)
            if hit is not None:
                note_recovery(scanner, hit)

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

    # Cycle boundaries not yet swept, latest first; none in arrival mode.
    cycle_ticks = to_ticks(n * config.t_share)
    horizon_ticks = to_ticks(horizon)
    pending = [] if arrival else sorted(
        set(range(cycle_ticks, horizon_ticks + 1, cycle_ticks)) | {horizon_ticks}, reverse=True
    )

    def sweep_cycles(until_tick: int) -> None:
        while pending and pending[-1] <= until_tick:
            at = pending.pop() * TICK_S
            for s in range(config.scanners):
                sweep_cycle(s, at)

    for tick, dev, idx in events:
        sweep_cycles(tick)
        emission = emissions_by_device[dev][idx]
        entry = None  # one immutable entry per heard emission, shared by its scanners
        for s in range(config.scanners):
            if not continuous:
                offset = (tick - scanner_phases[s]) % interval_ticks
                if offset >= window_ticks:
                    continue
            if loss and rng.random() < loss:
                continue
            if entry is None:
                # No propagation delay: a reception's time is the emission tick.
                entry = ReceivedShare(emission.share, emission.mac_token, tick * TICK_S)
            feed(s, entry, emission, dev)
    sweep_cycles(horizon_ticks)

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

# Text converter for each scalar key; a key sets the SimConfig field of the
# same name, and SimConfig checks the value.
_CONVERTERS = {
    "scanners": int,
    "t_share": float,
    "adv_interval": float,
    "loss_rate": float,
    "scan_mode": str,
    "horizon": float,
    "seed": int,
    "trials": int,
    "recon_mode": str,
    "max_tries": int,
    "group_by_mac": lambda text: _BOOL[text.lower()],
    "eviction": lambda text: text if text in ("auto", "off") else float(text),
}


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


def load_sim_configs(path: str) -> list[SimConfig]:
    """Parse a key=value config file into one config per scheme/nodes pair.

    ``scheme`` (k:n, comma list allowed) and ``nodes`` (comma list allowed)
    expand as a grid in file order; every other key sets the SimConfig field
    of the same name. A key the file leaves out takes SimConfig's default,
    and a value SimConfig rejects raises ParseError at the line that set it.
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

    def take(key: str):
        return raw.pop(key, (None, 0))

    schemes_text, schemes_line = take("scheme")
    k_text, k_line = take("k")
    n_text, n_line = take("n")
    if schemes_text is not None:
        schemes = _parse_schemes(schemes_text, schemes_line)
    elif k_text is not None and n_text is not None:
        schemes_line = max(k_line, n_line)
        try:
            schemes = [(int(k_text), int(n_text))]
        except ValueError as exc:
            raise ParseError(schemes_line, "k and n must be integers") from exc
    else:
        raise ParseError(1, "config needs either scheme=k:n or k= and n=")
    lines = {"params": schemes_line}  # SimConfig field -> the line that set it

    nodes: list[dict[str, int]] = [{}]
    nodes_text, nodes_line = take("nodes")
    if nodes_text is not None:
        lines["m_devices"] = nodes_line
        try:
            nodes = [{"m_devices": int(x)} for x in nodes_text.split(",")]
        except ValueError as exc:
            raise ParseError(nodes_line, f"bad nodes list {nodes_text!r}") from exc

    values = {}
    for key, (text, lineno) in raw.items():
        if key not in _CONVERTERS:
            raise ParseError(lineno, f"unknown config key {key!r}")
        try:
            values[key] = _CONVERTERS[key](text)
        except (ValueError, KeyError) as exc:
            raise ParseError(lineno, f"bad value for {key}: {text!r}") from exc
        lines[key] = lineno

    try:
        return [
            SimConfig(SchemeParams(k, n), **node, **values) for k, n in schemes for node in nodes
        ]
    except InvalidParams as exc:
        raise ParseError(lines["params"], str(exc)) from exc
    except InvalidConfig as exc:
        line = next((lines[f] for f in exc.fields if f in lines), lines["params"])
        raise ParseError(line, str(exc)) from exc
