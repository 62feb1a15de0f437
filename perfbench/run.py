#!/usr/bin/env python3
"""Layered end-to-end benchmark for shardcast (standard library only).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. For each workload, the set-up (input
generation, timed as ``setup_s``) runs several times in fresh processes,
then one fresh process measures the workload for about ``--seconds``
seconds and checks its output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run and
the tracing overhead. The last line of standard output is one JSON
object; a fuller record of the run, with its environment, is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("table-sweep", "field-latency", "scanner-stream", "trace-analyze")
SETUP_REPEATS = {"table-sweep": 5, "field-latency": 5, "scanner-stream": 3, "trace-analyze": 3}
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shardcast").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def worker(argv: list[str], deadline: float) -> float:
    """Run one worker phase to completion; returns its wall time.

    The wait blocks (a wait with a timeout polls, in steps of up to 50 ms,
    which would quantise the timing); a timer kills the worker at the
    deadline instead.
    """
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached")
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, stdout=sys.stderr)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    if monotonic() >= deadline:
        raise BenchError(f"worker {argv[0]} exceeded the time limit")
    if returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with {returncode}")
    return wall


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    inputs = OUT / f"inputs-{name}-{seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--dir", str(inputs)]
    try:
        setup_times, digests = [], set()
        # Traced runs set up once untraced and once traced (the last one is kept).
        for traced in ([False, True] if trace else [False] * SETUP_REPEATS[name]):
            setup_times.append(worker(["setup", *common, "--trace", str(int(traced))], deadline))
            digests.add(json.loads((inputs / "meta.json").read_text())["inputs_sha256"])
        child_out = inputs / "measure.json"
        worker(["measure", *common, "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(child_out)], deadline)
        child = json.loads(child_out.read_text())
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if len(digests) != 1:
        child["failed"] += 1
        child["problems"].append("set-up is not deterministic")
    return {"setup_times_s": setup_times, **child}


def end_to_end(name: str, child: dict) -> dict:
    """End-to-end metrics as value/unit pairs: those BENCHMARK.json lists,
    then the same figures under workload-specific names, then error_frac."""
    units_per_s = child["work"] / child["wall_s"]
    metrics = {
        "units_per_s": (units_per_s, "1/s"),
        "op_p50_ms": (child["op_p50_ms"], "ms"),
        "op_tail_ms": (child["op_tail_ms"], "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(child["setup_times_s"]), "s"),
    }
    named = {
        "table-sweep": "sweep_tries_per_s",
        "field-latency": "sim_events_per_s",
        "scanner-stream": "frames_per_s",
        "trace-analyze": "rows_per_s",
    }
    metrics[named[name]] = (units_per_s, "1/s")
    if name == "table-sweep":
        metrics["sweep_trials_per_s"] = (child["attempted"] / child["wall_s"], "1/s")
    if name == "scanner-stream":
        metrics["ingest_p50_us"] = (child["op_p50_ms"] * 1e3, "us")
        metrics[f"ingest_p{child['op_tail_pct']}_us"] = (child["op_tail_ms"] * 1e3, "us")
    metrics["error_frac"] = (child["failed"] / child["attempted"], "fraction")
    return metrics


def per_layer(child: dict, spec: dict) -> dict:
    return {m["name"]: (child["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}


def one(name: str, args, deadline: float, env: dict, spec: dict) -> tuple[dict, dict]:
    child = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    metrics = per_layer(child, spec) if args.trace else end_to_end(name, child)
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {**env, "backend": child["backend"]},
        "correct": child["failed"] == 0, "attempted": child["attempted"],
        "failed": child["failed"], "problems": child["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: v for k, v in child.items() if k not in ("layers",)},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for key, (value, unit) in metrics.items():
        print(f"{name:15s} {key:38s} {value:>16.6g} {unit}")
    for problem in child["problems"]:
        print(f"{name:15s} CHECK FAILED: {problem}")
    return record, metrics


def _terminate(signum, _frame):
    # Unwinding through worker() kills and reaps the running worker process.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "shardcast" / "__init__.py").is_file() or not (
            ROOT / "configs" / "table_repro.cfg").is_file():
        print(f"error: {ROOT} is not a shardcast checkout (src/shardcast, configs/ missing)",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = monotonic() + TIME_LIMIT_S * len(names)
    env = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            record, metrics = one(name, args, deadline, env, spec)
            out["correct"] &= record["correct"]
            out["attempted"] += record["attempted"]
            out["failed"] += record["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            out["metrics"].update({prefix + k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                   for k in reported})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
