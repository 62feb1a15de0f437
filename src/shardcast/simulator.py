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
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterable, TextIO

from .broadcaster import BeaconRun, BroadcastConfig, Broadcaster, TICK_S, to_ticks
from .errors import EmptyConfigList, InvalidConfig, InvalidParams, ParseError, read_utf8
from .identity import identifier_new
from .reconstructor import (
    ReceivedShare,
    ReconstructionReport,
    Reconstructor,
    check_max_tries,
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
    if not isinstance(mode, str):
        raise InvalidConfig(f"scan mode {mode!r} must be a name", "scan_mode")
    if mode in SCAN_MODES:
        return SCAN_MODES[mode]
    if mode.startswith("custom:"):
        try:
            window, interval = map(float, mode.removeprefix("custom:").split(":"))
        except ValueError:  # not two numbers
            window = interval = math.nan
        if 0 < window <= interval < math.inf:
            # The simulator scans whole ticks, and interval >= window.
            to_ticks(interval, "scan_mode")
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
    horizon: float | None = None  # None: one cycle of n slots
    seed: int = 0
    trials: int = 1
    recon_mode: str = "cycle"  # or "arrival"
    max_tries: int | None = None
    eviction: str | float = "auto"  # "auto": one cycle + one slot; "off"; or seconds

    def __post_init__(self):
        for name in ("m_devices", "scanners", "trials"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise InvalidConfig(f"{name} {value!r} must be an integer of at least 1", name)
        # Trial i runs at seed + i, and Random(-s) draws what Random(s) does.
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise InvalidConfig(f"seed {self.seed!r} must be an integer of at least 0", "seed")
        if not (isinstance(self.loss_rate, (int, float)) and 0.0 <= self.loss_rate < 1.0):
            raise InvalidConfig(f"loss_rate {self.loss_rate!r} must lie in [0, 1)", "loss_rate")
        if self.recon_mode not in RECON_MODES:
            raise InvalidConfig(f"unknown recon_mode {self.recon_mode!r}", "recon_mode")
        scan_window_params(self.scan_mode)  # validates
        if self.horizon is not None and not (
            isinstance(self.horizon, (int, float)) and 0 < self.horizon
        ):
            raise InvalidConfig(f"horizon {self.horizon!r} must be positive seconds", "horizon")
        check_max_tries(self.max_tries)
        if self.eviction not in ("auto", "off") and not (
            isinstance(self.eviction, (int, float)) and 0 <= self.eviction < math.inf
        ):
            raise InvalidConfig("eviction must be auto, off, or finite seconds >= 0", "eviction")
        self.broadcast_config()  # the advertising rules
        self.ticks()  # a finite horizon tick count

    def broadcast_config(self) -> BroadcastConfig:
        return BroadcastConfig(self.params, self.t_share, self.adv_interval)

    def ticks(self) -> tuple[int, int, int]:
        """(horizon, scan window, scan interval) in whole ticks; no horizon is one cycle."""
        window, interval = scan_window_params(self.scan_mode)
        if self.horizon is None:
            return self.broadcast_config().ticks()[2], to_ticks(window), to_ticks(interval)
        return to_ticks(self.horizon, "horizon"), to_ticks(window), to_ticks(interval)

    def eviction_age(self) -> float | None:
        if self.eviction == "off":
            return None
        if self.eviction == "auto":
            return self.params.n * self.t_share + self.t_share
        return float(self.eviction)


@dataclass
class SimResult:
    config: SimConfig
    reports: list[ReconstructionReport]
    recoveries: int
    total_tries: int
    latencies: list[float]
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
    m, k = config.m_devices, config.params.k
    bcast = config.broadcast_config()
    slot_ticks, adv_ticks, cycle_ticks = bcast.ticks()
    horizon_ticks, window_ticks, interval_ticks = config.ticks()

    device_rngs = [rng.derive() for _ in range(m)]
    device_phases = [rng.randrange(slot_ticks) * TICK_S for _ in range(m)]

    continuous = window_ticks >= interval_ticks
    scanner_phases = [
        0 if continuous else rng.randrange(interval_ticks) for _ in range(config.scanners)
    ]
    recon_rngs = [rng.derive() for _ in range(config.scanners)]

    # One run per slot that aired, and one event per beacon; a beacon's run
    # carries its share, its device's generation and its address.
    identifiers: list[bytes] = []
    events: list[tuple[int, int, BeaconRun | None]] = []  # (tick, device, run)
    slot_instances = 0
    for dev, dev_rng in enumerate(device_rngs):
        identifier = identifier_new(dev_rng)
        identifiers.append(identifier)
        device = Broadcaster(identifier, bcast, dev_rng, start=device_phases[dev])
        runs = device._runs(horizon_ticks - 1)  # before the horizon; one run per slot
        slot_instances += len(runs)
        for run in runs:
            events.extend(zip(range(run.first_tick, run.end_tick, adv_ticks),
                              repeat(dev), repeat(run)))
    emitted = len(events)
    arrival = config.recon_mode == "arrival"
    if not arrival:
        # One (tick, -1, None) event per cycle boundary and one at the
        # horizon: a sweep sorts before the receptions of its own tick.
        events.extend((tick, -1, None) for tick in range(cycle_ticks, horizon_ticks, cycle_ticks))
        events.append((horizon_ticks, -1, None))
    events.sort()  # (tick, device) is unique, so runs are never compared

    budget = config.max_tries
    if budget is None and arrival:
        budget = default_max_tries(config.params, m)
    recons = [
        Reconstructor(
            config.params,
            recon_rngs[s],
            max_tries=budget,
            max_share_age=config.eviction_age(),
        )
        for s in range(config.scanners)
    ]

    received = [0] * config.scanners
    # Ground truth, per scanner: the (device, generation) that aired each
    # share it admitted, by the share's dedup key. The address rotates every
    # generation and a body is random, so a key names one slot of one device.
    admitted: list[dict[tuple[str, int, bytes], tuple[int, int]]] = [
        {} for _ in range(config.scanners)
    ]
    first_audible: dict[tuple[int, int], float] = {}
    resolved: dict[tuple[int, int], float] = {}
    spurious = 0
    loss = config.loss_rate

    def note_recovery(scanner: int, hit) -> list[tuple[int, int]]:
        """Resolve or count the hit; returns the source of each of its shares."""
        nonlocal spurious
        # The scanner admitted every pool entry: a missing key is a fault of
        # the simulator, not a spurious recovery.
        sources = [admitted[scanner][entry.key] for entry in hit.sources]
        if len(set(sources)) != 1:
            spurious += 1
        else:  # k shares of one (device, generation) interpolate to its identifier.
            resolved.setdefault((scanner, sources[0][0]), hit.completed_at)
        return sources

    def sweep_cycle(scanner: int, at: float) -> None:
        recon = recons[scanner]
        recon.evict_stale(at)
        # The pool holds one entry per key, so the entries of one (device,
        # generation) carry distinct share ids. Only a hit changes the pool
        # during a sweep, by removing its sources.
        counts = Counter(admitted[scanner][entry.key] for entry in recon.pool_entries())
        while max(counts.values(), default=0) >= k:
            hit = recon.run(at)  # budget: the config's max_tries; none when it is None
            if hit is None:
                break
            counts.subtract(note_recovery(scanner, hit))

    # A reception of the run a scanner last admitted from a device, while
    # that admission is not stale, is a repeat: the pool holds its share, or
    # held it until a recovery consumed it. It skips the reconstructor, and
    # its eviction waits for the next reader of the pool: an admission, a
    # cycle sweep, or the catch-up after the loop. Eviction only grows with
    # time, so each reader sees the pool that evicting on every beacon leaves.
    age = recons[0].max_share_age  # math.inf when eviction is off
    heard_at = [-math.inf] * config.scanners  # the last repeat
    # Per scanner, by device: the run last admitted, and when.
    scanners = [
        (s, scanner_phases[s], recons[s], [None] * m, [0.0] * m) for s in range(config.scanners)
    ]
    draw = rng.random
    for tick, dev, run in events:
        # No propagation delay: a reception's time is the emission tick.
        now = tick * TICK_S
        if run is None:
            for s in range(config.scanners):
                sweep_cycle(s, now)
            continue
        cutoff = now - age  # as evict_stale(now) has it
        entry = None  # one immutable entry per admitted emission, shared by its scanners
        for s, phase, recon, held, held_at in scanners:
            if not continuous and (tick - phase) % interval_ticks >= window_ticks:
                continue
            if loss and draw() < loss:
                continue
            received[s] += 1
            if held[dev] is run and held_at[dev] >= cutoff:
                heard_at[s] = now
                continue
            if entry is None:
                entry = ReceivedShare(run.share, run.mac_token, now)
            recon.evict_stale(now)
            if not recon.add_share(entry):
                continue  # this scanner admitted the same key earlier and noted it then
            held[dev] = run
            held_at[dev] = now
            admitted[s][entry.key] = (dev, run.generation)
            first_audible.setdefault((s, dev), now)
            if arrival:
                hit = recon.run(now)
                if hit is not None:
                    note_recovery(s, hit)
    for s in range(config.scanners):
        recons[s].evict_stale(heard_at[s])

    total_tries = sum(r.total_tries for r in recons)
    recoveries = sum(r.identifiers_recovered for r in recons)
    # A resolved (scanner, device) pair admitted that device's shares first.
    latencies = sorted(resolved[key] - first_audible[key] for key in resolved)
    resolved_devices = {dev for (_s, dev) in resolved}
    return SimResult(
        config=config,
        reports=[r.report() for r in recons],
        recoveries=recoveries,
        total_tries=total_tries,
        latencies=latencies,
        undetected=m - len(resolved_devices),
        spurious=spurious,
        emitted=emitted,
        received=received,
        slot_instances=slot_instances,
        slots_received=[len(a) for a in admitted],
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

def _parse_schemes(text: str) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        k_text, n_text = item.split(":")  # ValueError unless exactly one ':'
        out.append((int(k_text), int(n_text)))
    return out


# The simulation settings: each config key's text converter, which raises
# ValueError on text it cannot read. scheme (or k and n) sets params and nodes
# sets m_devices; every other key sets the SimConfig field of the same name,
# and SimConfig checks the value. `simulate` takes one flag per key.
SETTINGS = {
    "scheme": _parse_schemes,
    "k": int,
    "n": int,
    "nodes": lambda text: [int(x) for x in text.split(",")],
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
    "eviction": lambda text: text if text in ("auto", "off") else float(text),
}


def bad_value(key: str, text: str) -> str:
    """The message for text that ``key``'s converter cannot read."""
    return f"bad value for {key}: {text!r}"


def _config_settings(lines: Iterable[str]) -> dict[str, tuple[object, int]]:
    """Each key's last value, converted, and the line that set it.

    Every line's key and value are checked as the line is read, so the
    first bad line of the file is the one reported.
    """
    settings = {}
    for lineno, text in enumerate(lines, start=1):
        text = text.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(lineno, f"expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        convert = SETTINGS.get(key)
        if convert is None:
            raise ParseError(lineno, f"unknown config key {key!r}")
        try:
            settings[key] = (convert(value), lineno)
        except ValueError as exc:
            raise ParseError(lineno, bad_value(key, value)) from exc
    return settings


def load_sim_configs(path: str) -> list[SimConfig]:
    """Parse a key=value config file into one config per scheme/nodes pair.

    ``scheme`` (k:n, comma list allowed) and ``nodes`` (comma list allowed)
    expand as a grid in file order; every other key sets the SimConfig field
    of the same name. A key the file leaves out takes SimConfig's default.
    An unknown key or a value that does not convert raises ParseError at its
    line as the file is read; a value SimConfig rejects raises ParseError at
    the line that set it. A file with a ``scheme`` line and a ``k`` or ``n``
    line raises ParseError at the later of them.
    """
    settings = read_utf8(path, _config_settings)
    scheme = settings.pop("scheme", None)
    k_setting, n_setting = settings.pop("k", None), settings.pop("n", None)
    if scheme is not None:
        schemes, params_line = scheme
        both = [setting[1] for setting in (k_setting, n_setting) if setting is not None]
        if both:
            raise ParseError(max(params_line, *both),
                             "config needs either scheme=k:n or k= and n=, not both")
    elif k_setting is not None and n_setting is not None:
        (k, k_line), (n, n_line) = k_setting, n_setting
        schemes, params_line = [(k, n)], max(k_line, n_line)
    else:
        raise ParseError(1, "config needs either scheme=k:n or k= and n=")
    lines = {"params": params_line}  # SimConfig field -> the line that set it

    nodes: list[dict[str, int]] = [{}]
    if "nodes" in settings:
        counts, lines["m_devices"] = settings.pop("nodes")
        nodes = [{"m_devices": count} for count in counts]

    values = {}
    for key, (value, lineno) in settings.items():
        values[key] = value
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
