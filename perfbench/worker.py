"""One workload phase in a fresh process; started by run.py.

    worker.py setup   --workload W --seed S --dir D --trace 0|1
    worker.py measure --workload W --seed S --dir D --seconds N --trace 0|1 --out FILE

``setup`` writes the generated inputs and ``meta.json`` into D (with
``--trace 1`` it also writes the set-up's layer aggregates). ``measure``
repeats the workload's unit of work and writes its findings to FILE.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MICRO_SECONDS = 0.25


def do_setup(args) -> None:
    workload = WORKLOADS[args.workload]()
    inputs = Path(args.dir)
    if args.trace:
        tracer = Tracer()
        with tracer.install():
            meta = workload.setup(args.seed, inputs)
        (inputs / "setup_trace.json").write_text(json.dumps(tracer.to_json()))
    else:
        meta = workload.setup(args.seed, inputs)
    (inputs / "meta.json").write_text(json.dumps(meta))


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count`` samples."""
    return max(1, -(-count * pct // 100))


def kernel_micro() -> dict[str, float]:
    """Field-kernel throughput of the active backend at k=3, width 16."""
    from shardcast import kernel
    from shardcast.rng import RandomSource

    rng = RandomSource(4242)
    secret, coeffs = rng.randbytes(16), rng.randbytes(32)
    bodies = kernel.split_secret(secret, 3, 5, coeffs)
    xs, packed = bytes([1, 3, 5]), bodies[0] + bodies[2] + bodies[4]
    if kernel.recover_secret(xs, packed) != secret:
        raise RuntimeError("kernel does not round-trip")
    ops = {
        "kernel.micro_split_ops_per_s": lambda: kernel.split_secret(secret, 3, 5, coeffs),
        "kernel.micro_weights_ops_per_s": lambda: kernel.lagrange_weights(xs),
        "kernel.micro_recover_ops_per_s": lambda: kernel.recover_secret(xs, packed),
    }
    out = {}
    for name, fn in ops.items():
        calls, start = 0, perf_counter()
        while perf_counter() - start < MICRO_SECONDS:
            for _ in range(500):
                fn()
            calls += 500
        out[name] = calls / (perf_counter() - start)
    return out


def run_units(workload, count: int | None, seconds: float, timed: bool):
    """Run units 0, 1, ...: ``count`` of them, or while the time lasts.

    Another unit starts only while the elapsed time plus half a mean unit
    stays within ``seconds``, so a run ends within about half a unit of
    ``seconds``.
    """
    units, elapsed = [], 0.0
    while (len(units) < count) if count is not None else (
            not units or elapsed + elapsed / len(units) / 2 <= seconds):
        t0 = perf_counter()
        unit = workload.unit(len(units), timed)
        elapsed += perf_counter() - t0
        units.append(unit)
    return units, elapsed


def check_digests(workload, seed: int, units) -> list[str]:
    problems = []
    pinned = json.loads((HERE / "digests.json").read_text())[workload.name]
    if seed == pinned["seed"] and units[0].digest != pinned["unit0_sha256"]:
        problems.append(f"unit 0 digest {units[0].digest} != pinned {pinned['unit0_sha256']}")
    if workload.same_digest_every_unit and len({u.digest for u in units}) != 1:
        problems.append("repeated units disagree")
    return problems


def do_measure(args) -> None:
    from shardcast import kernel

    workload = WORKLOADS[args.workload]()
    inputs = Path(args.dir)
    meta = json.loads((inputs / "meta.json").read_text())
    workload.prepare(args.seed, inputs, meta)
    result = {"backend": kernel.BACKEND, "python": platform.python_version()}
    problems = []
    if not args.trace:
        units, wall = run_units(workload, None, args.seconds, timed=True)
        ops = sorted(ns for u in units for ns in u.ops_ns)
        tail = rank(len(ops), workload.tail_pct)
        result.update(
            units=len(units), wall_s=wall, work=sum(u.work for u in units),
            op_samples=len(ops), op_p50_ms=ops[rank(len(ops), 50) - 1] / 1e6,
            op_tail_pct=workload.tail_pct, op_tail_ms=ops[tail - 1] / 1e6,
            op_tail_samples_beyond=len(ops) - tail,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    else:
        units, untraced = run_units(workload, workload.trace_units, 0, timed=False)
        tracer = Tracer()
        with tracer.install():
            traced_units, traced = run_units(workload, workload.trace_units, 0, timed=False)
        if [u.digest for u in traced_units] != [u.digest for u in units]:
            problems.append("traced output differs from the untraced output")
        setup_trace = inputs / "setup_trace.json"
        accounted = tracer.total_self_s() / traced if traced > 0 else 0.0
        if setup_trace.exists():
            tracer.merge(json.loads(setup_trace.read_text()))
        layers = layer_metrics(tracer)
        layers.update(kernel_micro())
        layers.update({"trace.untraced_wall_s": untraced, "trace.wall_s": traced,
                       "trace.overhead_s": traced - untraced,
                       "trace.accounted_frac": accounted})
        result.update(units=len(units), wall_s=untraced, work=sum(u.work for u in units),
                      layers=layers, spans=tracer.to_json())
        units = units + traced_units
    problems += check_digests(workload, args.seed, units)
    result.update(
        attempted=sum(u.attempted for u in units),
        failed=sum(u.failed for u in units) + len(problems),
        problems=problems,
        unit0_sha256=units[0].digest,
    )
    Path(args.out).write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    (do_setup if args.phase == "setup" else do_measure)(args)


if __name__ == "__main__":
    main()
