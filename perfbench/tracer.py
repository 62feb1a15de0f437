"""Per-layer tracing from outside the package.

The package is not instrumented. Instead, ``Tracer.install`` replaces the
public functions at each layer boundary with timing wrappers for the
duration of a ``with`` block and puts the originals back afterwards.

Fine-grained calls (millions of kernel calls and candidate draws) are not
kept as individual spans: each wrapper folds its span into per-edge
aggregates keyed by ``parent>name`` (calls, busy time, self time), so
memory stays constant however long the run. A span's self time is its
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns

NS = 1e-9


class Tracer:
    def __init__(self):
        self.edges: dict[str, list[int]] = {}  # "parent>name" -> [calls, busy_ns, self_ns]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child_ns]
        self._in_run = 0

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, dur: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        key = f"{parent[0] if parent else ''}>{frame[0]}"
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0, 0]
        edge[0] += 1
        edge[1] += dur
        edge[2] += dur - frame[1]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(result)`` may count."""

        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, perf_counter_ns() - t0)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- totals ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for k, e in self.edges.items() if k.split(">")[1] == name)

    def busy_s(self, name: str) -> float:
        return NS * sum(e[1] for k, e in self.edges.items() if k.split(">")[1] == name)

    def self_s(self, name: str) -> float:
        return NS * sum(e[2] for k, e in self.edges.items() if k.split(">")[1] == name)

    def top_level_busy_s(self) -> float:
        return NS * sum(e[1] for k, e in self.edges.items() if k.startswith(">"))

    def total_self_s(self) -> float:
        return NS * sum(e[2] for e in self.edges.values())

    def merge(self, other: dict) -> None:
        """Add a ``to_json`` dump from another process (the set-up run)."""
        for key, (calls, busy, own) in other["edges"].items():
            edge = self.edges.setdefault(key, [0, 0, 0])
            edge[0] += calls
            edge[1] += busy
            edge[2] += own
        for name, n in other["counts"].items():
            self.count(name, n)

    def to_json(self) -> dict:
        return {"edges": {k: list(v) for k, v in sorted(self.edges.items())},
                "counts": dict(sorted(self.counts.items()))}

    # -- installing the wrappers -----------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap every layer boundary of the package until the block exits."""
        from shardcast import beacon, cli, kernel, reconstructor, rng, simulator
        from shardcast.broadcaster import Broadcaster
        from shardcast.reconstructor import Reconstructor

        targets = []

        def patch(owner, attr, wrapper):
            targets.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        def verified(ok):
            if ok:
                self.count("identity.verify_pass")

        def emitted(out):
            self.count("broadcaster.emissions", len(out))

        def added(fresh):
            if not fresh:
                self.count("reconstructor.duplicates")

        def evicted(gone):
            self.count("reconstructor.evicted", gone)

        def simulated(result):
            self.count("simulator.events", result.emitted)

        def read(rows):
            self.count("exposure.rows", len(rows))

        def encountered(table):
            self.count("exposure.encounters", sum(row[1] for row in table))

        run_span = self.span("reconstructor.run", Reconstructor.run)

        def run(recon, now, budget=None):
            before = recon.total_tries
            self._in_run += 1
            try:
                hit = run_span(recon, now, budget)
            finally:
                self._in_run -= 1
            tries = recon.total_tries - before
            self.count("reconstructor.tries", tries)
            limit = recon.max_tries if budget is None else budget
            if hit is not None:
                self.count("reconstructor.hits")
            else:
                self.count("reconstructor.wasted_tries", tries)
                if limit is not None and tries >= limit:
                    self.count("reconstructor.runs_budget_exhausted")
            return hit

        randrange = rng.RandomSource.randrange

        def counted_randrange(source, n):
            if self._in_run:
                self.count("reconstructor.draws")
            return randrange(source, n)

        patch(kernel, "recover_secret", self.span("kernel.recover_secret", kernel.recover_secret))
        patch(kernel, "split_secret", self.span("kernel.split_secret", kernel.split_secret))
        patch(reconstructor, "identifier_verify",
              self.span("identity.verify", reconstructor.identifier_verify, verified))
        patch(Reconstructor, "run", run)
        patch(Reconstructor, "add_share",
              self.span("reconstructor.add", Reconstructor.add_share, added))
        patch(Reconstructor, "evict_stale",
              self.span("reconstructor.evict", Reconstructor.evict_stale, evicted))
        patch(rng.RandomSource, "randrange", counted_randrange)
        patch(Broadcaster, "tick", self.span("broadcaster.tick", Broadcaster.tick, emitted))
        patch(beacon, "decode_frame", self.span("beacon.decode_frame", beacon.decode_frame))
        patch(beacon, "encode_frame", self.span("beacon.encode_frame", beacon.encode_frame))
        patch(simulator, "run_simulation",
              self.span("simulator.run_simulation", simulator.run_simulation, simulated))
        patch(cli, "read_sightings", self.span("exposure.read", cli.read_sightings, read))
        patch(cli, "compute_scheme_exposure",
              self.span("exposure.scheme", cli.compute_scheme_exposure))
        patch(cli, "encounter_statistics",
              self.span("exposure.encounters", cli.encounter_statistics, encountered))
        patch(cli, "main", self.span("cli.main", cli.main))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(targets):
                setattr(owner, attr, original)


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics, by the names listed in BENCHMARK.json."""
    c = tr.counts.get
    recover_calls = tr.calls("kernel.recover_secret")
    recover_busy = tr.busy_s("kernel.recover_secret")
    verify_calls = tr.calls("identity.verify")
    run_busy = tr.busy_s("reconstructor.run")
    tries = c("reconstructor.tries", 0)
    draws = c("reconstructor.draws", 0)
    emissions = c("broadcaster.emissions", 0)
    tick_busy = tr.busy_s("broadcaster.tick")
    decode_busy = tr.busy_s("beacon.decode_frame")
    decode_frames = tr.calls("beacon.decode_frame")
    sim_busy = tr.busy_s("simulator.run_simulation")
    rows = c("exposure.rows", 0)
    read_busy = tr.busy_s("exposure.read")
    return {
        "kernel.recover_calls": recover_calls,
        "kernel.recover_busy_s": recover_busy,
        "kernel.recover_ops_per_s": _rate(recover_calls, recover_busy),
        "kernel.split_calls": tr.calls("kernel.split_secret"),
        "kernel.split_busy_s": tr.busy_s("kernel.split_secret"),
        "identity.verify_calls": verify_calls,
        "identity.verify_busy_s": tr.busy_s("identity.verify"),
        "identity.verify_pass_frac": _rate(c("identity.verify_pass", 0), verify_calls),
        "reconstructor.runs": tr.calls("reconstructor.run"),
        "reconstructor.run_busy_s": run_busy,
        "reconstructor.run_self_s": tr.self_s("reconstructor.run"),
        "reconstructor.tries": tries,
        "reconstructor.draws": draws,
        "reconstructor.tries_per_s": _rate(tries, run_busy),
        "reconstructor.draws_per_s": _rate(draws, run_busy),
        "reconstructor.hit_frac": _rate(c("reconstructor.hits", 0), tries),
        "reconstructor.runs_budget_exhausted": c("reconstructor.runs_budget_exhausted", 0),
        "reconstructor.wasted_tries_frac": _rate(c("reconstructor.wasted_tries", 0), tries),
        "reconstructor.add_calls": tr.calls("reconstructor.add"),
        "reconstructor.duplicates": c("reconstructor.duplicates", 0),
        "reconstructor.evicted": c("reconstructor.evicted", 0),
        "reconstructor.ingest_busy_s":
            tr.busy_s("reconstructor.add") + tr.busy_s("reconstructor.evict"),
        "broadcaster.emissions": emissions,
        "broadcaster.busy_s": tick_busy,
        "broadcaster.emissions_per_s": _rate(emissions, tick_busy),
        "beacon.decode_frames": decode_frames,
        "beacon.decode_busy_s": decode_busy,
        "beacon.frames_per_s": _rate(decode_frames, decode_busy),
        "beacon.encode_busy_s": tr.busy_s("beacon.encode_frame"),
        "simulator.trials": tr.calls("simulator.run_simulation"),
        "simulator.busy_s": sim_busy,
        "simulator.self_s": tr.self_s("simulator.run_simulation"),
        "simulator.events_per_s": _rate(c("simulator.events", 0), sim_busy),
        "exposure.rows": rows,
        "exposure.read_busy_s": read_busy,
        "exposure.read_rows_per_s": _rate(rows, read_busy),
        "exposure.scheme_busy_s": tr.busy_s("exposure.scheme"),
        "exposure.encounters_busy_s": tr.busy_s("exposure.encounters"),
        "exposure.encounters": c("exposure.encounters", 0),
        "cli.self_s": tr.self_s("cli.main"),
    }
