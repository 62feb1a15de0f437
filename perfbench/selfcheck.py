#!/usr/bin/env python3
"""One-off self-checks of the benchmark against the repository's references.

    python3 perfbench/selfcheck.py

1. The 10-trial seed-1 table sweep TSV has the published sha256 (about a
   minute on the pure-Python kernel).
2. The analyze path reproduces tests/fixtures/golden_analyze_5_6_1.txt on
   data/synthetic_trace.csv.
3. Both generators are deterministic per seed and differ between seeds.
4. Tracing leaves outputs unchanged, and the self times of a traced sweep
   add up to its top-level busy time.

Exits 0 when every check passes and 1 otherwise, one line per check.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from shardcast import cli  # noqa: E402

from gen import Population, air_log, sighting_log  # noqa: E402
from tracer import Tracer  # noqa: E402

TABLE_SHA256 = "6a0b3023ee1b57aa63c45f8079a870c1128b0828fd8f7a3092b00f547ac6d6c9"
SCRATCH = HERE / "out" / "selfcheck"


def sweep_tsv(trials: int, seed: int) -> bytes:
    out = SCRATCH / "sweep.tsv"
    rc = cli.main(["sweep", "--config", str(ROOT / "configs" / "table_repro.cfg"),
                   "--trials", str(trials), "--seed", str(seed), "--out", str(out)])
    return out.read_bytes() if rc == 0 else b""


def check_table_digest() -> tuple[bool, str]:
    digest = hashlib.sha256(sweep_tsv(10, 1)).hexdigest()
    return digest == TABLE_SHA256, f"sweep --trials 10 --seed 1 sha256 {digest}"


def check_analyze_golden() -> tuple[bool, str]:
    out = SCRATCH / "analyze.txt"
    rc = cli.main(["analyze", "--input", str(ROOT / "data" / "synthetic_trace.csv"),
                   "--k", "5", "--n", "6", "--t", "1", "--gaps", "1,3,30,60",
                   "--out", str(out)])
    golden = (ROOT / "tests" / "fixtures" / "golden_analyze_5_6_1.txt").read_text()
    ok = rc == 0 and out.read_text() == golden
    return ok, "analyze on data/synthetic_trace.csv matches the golden report"


def check_generators() -> tuple[bool, str]:
    air = Population(devices=6, scanners=2, horizon=60.0, dwell=(2.0, 20.0), loss=0.3)
    trace = Population(devices=6, scanners=3, horizon=600.0, dwell=(10.0, 100.0), loss=0.3,
                       reach=2, k=5, n=6, t_share=10.0, adv_interval=1.0)
    ok = (air_log(air, 7) == air_log(air, 7) != air_log(air, 8)
          and sighting_log(trace, 7) == sighting_log(trace, 7) != sighting_log(trace, 8))
    return ok, "air log and sighting log are deterministic per seed"


def check_tracing() -> tuple[bool, str]:
    plain = sweep_tsv(1, 3)
    tracer = Tracer()
    with tracer.install():
        traced = sweep_tsv(1, 3)
    top, total = tracer.top_level_busy_s(), tracer.total_self_s()
    ok = plain == traced and abs(top - total) <= 1e-6 * max(top, 1.0)
    return ok, f"traced sweep output unchanged; self times {total:.6f} s of busy {top:.6f} s"


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for check in (check_analyze_golden, check_generators, check_tracing,
                      check_table_digest):
            ok, detail = check()
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {check.__name__}: {detail}", flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
