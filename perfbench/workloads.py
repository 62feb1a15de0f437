"""The four benchmark workloads.

Each workload has a set-up step (run in its own process, timed as
``setup_s``) that writes its generated inputs to a directory, and a unit
of work that the measuring process repeats. Units are numbered; unit ``i``
of bench seed ``s`` always does the same work, so its output digest can be
checked, and the digest of unit 0 at the default seed is pinned in
``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from gen import Population, air_log, read_air_log, sighting_log

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = "configs/table_repro.cfg"


def unit_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def take(path: Path) -> bytes:
    """Read and delete a CLI output file (empty when the CLI wrote none)."""
    if not path.exists():
        return b""
    data = path.read_bytes()
    path.unlink()
    return data


@dataclass
class Unit:
    """Outcome of one unit of work."""

    work: int  # in the workload's own measure: tries, emissions, frames, rows
    attempted: int  # operations attempted
    ops_ns: list[int]  # operation latencies, when timed
    failed: int  # operations that raised, misidentified, or failed a check
    digest: str  # sha256 of the unit's output


class TableSweep:
    """The paper's attempt-count table through the ``sweep`` subcommand.

    Work is counted in search tries (read back from the table: mean tries
    times recoveries), not in trials: the cost of one trial of the dense
    rows is heavy-tailed, so trials per second would mostly measure which
    seeds drew the expensive trials. For the same reason an operation is
    one search try: each ``Reconstructor.run`` is timed and counts as its
    time divided by its tries (runs that try nothing are left out).
    """

    name = "table-sweep"
    tail_pct = 90
    trace_units = 1
    same_digest_every_unit = False

    def setup(self, seed: int, out: Path) -> dict:
        from shardcast.simulator import load_sim_configs

        configs = load_sim_configs(str(ROOT / SWEEP_CONFIG))
        rows = [[c.params.k, c.params.n, c.m_devices] for c in configs]
        return {"rows": rows, "inputs_sha256": sha256(json.dumps(rows).encode())}

    def prepare(self, seed: int, inputs: Path, meta: dict) -> None:
        self.seed = seed
        self.inputs = inputs
        self.rows = meta["rows"]

    def unit(self, i: int, timed: bool) -> Unit:
        from shardcast import cli
        from shardcast.reconstructor import Reconstructor

        out = self.inputs / f"sweep-{i}.tsv"
        argv = ["sweep", "--config", str(ROOT / SWEEP_CONFIG), "--trials", "1",
                "--seed", str(unit_seed(self.seed, i)), "--out", str(out)]
        ops: list[int] = []
        original = Reconstructor.run
        if timed:
            def run(recon, now, budget=None):
                before = recon.total_tries
                t0 = perf_counter_ns()
                hit = original(recon, now, budget)
                elapsed = perf_counter_ns() - t0
                if recon.total_tries > before:
                    ops.append(elapsed // (recon.total_tries - before))
                return hit

            Reconstructor.run = run
        try:
            rc = cli.main(argv)
        finally:
            Reconstructor.run = original
        data = take(out)
        tries, failed = self._check(rc, data)
        return Unit(tries, len(self.rows), ops, failed, sha256(data))

    def _check(self, rc: int, data: bytes) -> tuple[int, int]:
        """Total search tries, and rows that are missing, out of order, or
        not fully resolved."""
        from shardcast.simulator import RESULTS_HEADER

        lines = data.decode().splitlines()
        if rc != 0 or not lines or lines[0] != RESULTS_HEADER:
            return 0, len(self.rows)
        tries = 0
        failed = abs(len(lines) - 1 - len(self.rows))
        for (k, n, nodes), line in zip(self.rows, lines[1:]):
            fields = line.split("\t")
            mean_tries = float(fields[5])
            ok = ([int(fields[0]), int(fields[1]), int(fields[2])] == [k, n, nodes]
                  and fields[7] == "0" and math.isfinite(mean_tries) and mean_tries >= 1)
            failed += not ok
            if ok:
                tries += round(mean_tries * nodes)  # every device recovered once
        return tries, failed


class FieldLatency:
    """Cycle-mode field simulation: few devices, fast advertising, lossy."""

    name = "field-latency"
    tail_pct = 90
    trace_units = 8
    same_digest_every_unit = False
    horizon = 300.0

    def setup(self, seed: int, out: Path) -> dict:
        config = self._config(0)
        return {"inputs_sha256": sha256(repr(config).encode())}

    def _config(self, seed: int):
        from shardcast.shamir import SchemeParams
        from shardcast.simulator import SimConfig

        return SimConfig(
            params=SchemeParams(3, 5), m_devices=2, scanners=4, t_share=5.0,
            adv_interval=0.1, loss_rate=0.3, scan_mode="balanced",
            horizon=self.horizon, seed=seed, recon_mode="cycle",
        )

    def prepare(self, seed: int, inputs: Path, meta: dict) -> None:
        self.seed = seed

    def unit(self, i: int, timed: bool) -> Unit:
        from shardcast import simulator
        from shardcast.identity import identifier_verify

        config = self._config(unit_seed(self.seed, i))
        t0 = perf_counter_ns()
        result = simulator.run_simulation(config)
        ops = [perf_counter_ns() - t0]
        ok = (result.spurious == 0 and result.recoveries > 0
              and result.resolved_devices <= set(range(config.m_devices))
              and all(identifier_verify(ident) for ident in result.identifiers))
        summary = repr((result.emitted, result.received, result.recoveries,
                        result.total_tries, result.latencies, result.undetected))
        return Unit(result.emitted, 1, ops, int(not ok), sha256(summary.encode()))


class ScannerStream:
    """A budgeted observer fed an air log frame by frame (closed loop).

    Unit ``i`` is the ``i``-th chunk of frames; the observer's state runs on
    from chunk to chunk, and starts afresh at the top of the log.
    """

    name = "scanner-stream"
    tail_pct = 99
    trace_units = 6
    same_digest_every_unit = False
    population = Population(devices=1200, scanners=1, horizon=5760.0, dwell=(2.0, 40.0),
                            loss=0.3, k=3, n=5, t_share=2.0, adv_interval=0.1)
    budget_devices = 4  # concurrency the attempt budget is sized for
    chunk = 5000  # frames per unit

    def setup(self, seed: int, out: Path) -> dict:
        records, truth = air_log(self.population, seed)
        data = b"".join(records)
        (out / "airlog.bin").write_bytes(data)
        return {"frames": len(records), "truth": [t.hex() for t in truth],
                "inputs_sha256": sha256(data)}

    def prepare(self, seed: int, inputs: Path, meta: dict) -> None:
        self.seed = seed
        self.records = read_air_log((inputs / "airlog.bin").read_bytes())
        self.truth = {bytes.fromhex(t) for t in meta["truth"]}

    def _fresh_observers(self) -> None:
        from shardcast.reconstructor import Reconstructor, default_max_tries
        from shardcast.rng import RandomSource
        from shardcast.shamir import SchemeParams

        pop = self.population
        params = SchemeParams(pop.k, pop.n)
        rng = RandomSource(self.seed)
        self.recons = [
            Reconstructor(params, rng.derive(),
                          max_tries=default_max_tries(params, self.budget_devices),
                          max_share_age=(pop.n + 1) * pop.t_share)
            for _ in range(pop.scanners)
        ]

    def unit(self, i: int, timed: bool) -> Unit:
        from shardcast import beacon
        from shardcast.broadcaster import TICK_S
        from shardcast.errors import ShardcastError
        from shardcast.reconstructor import ReceivedShare

        chunks = -(-len(self.records) // self.chunk)
        start = (i % chunks) * self.chunk
        if start == 0:
            self._fresh_observers()
        recons = self.recons
        ops: list[int] = []
        failed = 0
        hashed = hashlib.sha256()
        records = self.records[start:start + self.chunk]
        for tick, scanner, mac, frame in records:
            t0 = perf_counter_ns()
            try:
                decoded = beacon.decode_frame(frame)
                now = tick * TICK_S
                recon = recons[scanner]
                recon.evict_stale(now)
                hit = None
                if recon.add_share(ReceivedShare(decoded.share, mac, now)):
                    hit = recon.run(now)
            except ShardcastError:
                failed += 1
                continue
            ops.append(perf_counter_ns() - t0)
            if hit is not None:
                failed += hit.identifier not in self.truth
                hashed.update(f"{scanner} {hit.identifier.hex()} {tick}\n".encode())
        for recon in recons:
            hashed.update(recon.report().to_line().encode())
        return Unit(len(records), len(records), ops if timed else [], failed,
                    hashed.hexdigest())


class TraceAnalyze:
    """Exposure and encounter analysis of a generated sighting log."""

    name = "trace-analyze"
    tail_pct = 100  # a handful of calls per run: report the slowest
    trace_units = 1
    same_digest_every_unit = True
    population = Population(devices=600, scanners=8, horizon=86400.0, dwell=(10.0, 600.0),
                            loss=0.3, reach=4, k=5, n=6, t_share=10.0, adv_interval=1.0)
    gaps = (1, 3, 30, 60)

    def setup(self, seed: int, out: Path) -> dict:
        text, rows, pairs = sighting_log(self.population, seed)
        data = text.encode()
        (out / "trace.csv").write_bytes(data)
        return {"rows": rows, "pairs": pairs, "inputs_sha256": sha256(data)}

    def prepare(self, seed: int, inputs: Path, meta: dict) -> None:
        self.inputs = inputs
        self.rows = meta["rows"]
        self.pairs = meta["pairs"]

    def unit(self, i: int, timed: bool) -> Unit:
        from shardcast import cli

        out = self.inputs / f"analyze-{i}.txt"
        argv = ["analyze", "--input", str(self.inputs / "trace.csv"), "--k", "5", "--n", "6",
                "--t", "1", "--gaps", ",".join(map(str, self.gaps)), "--out", str(out)]
        t0 = perf_counter_ns()
        rc = cli.main(argv)
        ops = [perf_counter_ns() - t0]
        data = take(out)
        return Unit(self.rows, 1, ops, int(not self._ok(rc, data.decode())), sha256(data))

    def _ok(self, rc: int, text: str) -> bool:
        """Raw exposure equals the row count; encounter rows are consistent."""
        try:
            exposure, encounters = text.split("\n\n")
            _t, _k, _n, slots, total, factor = exposure.splitlines()[1].split("\t")
            table = [tuple(map(int, line.split("\t"))) for line in encounters.splitlines()[1:]]
        except ValueError:
            return False
        counts = [count for _gap, count, _dur in table]
        durations = [dur for _gap, _count, dur in table]
        return (rc == 0 and int(total) == int(slots) and int(total) > 0
                and factor == f"{self.rows / int(total):.3f}"
                and tuple(gap for gap, _c, _d in table) == self.gaps
                and counts == sorted(counts, reverse=True) and counts[-1] >= self.pairs
                and durations == sorted(durations) and durations[0] >= self.rows)


WORKLOADS = {w.name: w for w in (TableSweep, FieldLatency, ScannerStream, TraceAnalyze)}
