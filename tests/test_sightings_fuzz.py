"""Seeded fuzz of sighting-log input: mutated rows of the bundled trace
through `read_sightings`, and the `analyze` and `encounters` subcommands on
the same files. Each read returns or raises a ShardcastError, and a rejected
file names a mutated line. Each subcommand exits 0, 1 or 2 with no
traceback, and fails exactly when the read does."""

import random
import re
from pathlib import Path

import pytest

from shardcast.cli import main
from shardcast.errors import ParseError, ShardcastError
from shardcast.exposure import SightingLog, read_sightings

TRACE = Path(__file__).resolve().parent.parent / "data" / "synthetic_trace.csv"

# Timestamps at and past every rule: signs, the 2**63 limit, and text that
# int() takes or refuses (underscores, other scripts' digits, floats).
TIMESTAMPS = ("-1", "+7", "-0", str(2**63 - 1), str(2**63), "9" * 400, "1.5", "1e3", "0x10",
              "1_000", "١٢", "", " ", "nan", "inf", "12a")
FIELDS = ("", " ", "x", "-70", "+3", "1.0", "é", "﻿")
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")
BREAK = re.compile(rb"\r\n?|\n")  # a line break as a text read finds it


def mutate_row(row: bytes, rng) -> bytes:
    """One row of the log with one defect."""
    fields = row.split(b",")
    kind = rng.randrange(9)
    if kind == 0:  # columns cut
        fields = fields[:rng.randrange(len(fields))]
    elif kind == 1:  # extra columns
        fields += [rng.choice(FIELDS).encode() for _ in range(rng.randrange(1, 4))]
    elif kind == 2:  # two fields swapped
        i, j = rng.sample(range(len(fields)), 2)
        fields[i], fields[j] = fields[j], fields[i]
    elif kind == 3:  # a timestamp at or past a rule
        fields[0] = rng.choice(TIMESTAMPS).encode()
    elif kind == 4:  # another field emptied, signed or replaced
        at = rng.randrange(1, len(fields))
        fields[at] = rng.choice((b"", b"-" + fields[at], rng.choice(FIELDS).encode()))
    elif kind == 5:  # a blank line
        return rng.choice((b"", b" ", b"\t", b"\r"))
    elif kind == 6:  # a stray delimiter
        at = rng.randrange(len(row) + 1)
        return row[:at] + rng.choice((b",", b"\t", b",,", b"\r")) + row[at:]
    elif kind == 7:  # a byte that is not UTF-8
        at = rng.randrange(len(row) + 1)
        return row[:at] + rng.choice(NOT_UTF8) + row[at:]
    else:  # whitespace around a field
        at = rng.randrange(len(fields))
        fields[at] = b" " + fields[at] + b"\t"
    return b",".join(fields)


def mutated_logs(seed, count):
    """The trace with one to four rows mutated, the header now and then;
    yields the file's bytes and the numbers of the lines the mutated rows
    span, counted as a text read counts them (a stray carriage return
    splits a row)."""
    rng = random.Random(seed)
    rows = TRACE.read_bytes().split(b"\n")[:-1]
    for _ in range(count):
        out = list(rows)
        changed = {0 if rng.random() < 0.05 else rng.randrange(len(out))
                   for _ in range(rng.randrange(1, 5))}
        for at in changed:
            out[at] = mutate_row(out[at], rng)
        data = b"\n".join(out) + rng.choice((b"\n", b""))
        starts = [0]
        for row in out:
            starts.append(starts[-1] + len(row) + 1)
        lines = set()
        for at in changed:
            first = len(BREAK.findall(data, 0, starts[at])) + 1
            last = len(BREAK.findall(data, 0, starts[at] + len(out[at]))) + 1
            lines.update(range(first, last + 1))
        yield data, lines


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_logs_read_or_fail_at_a_mutated_line(seed, tmp_path, capsys):
    path = tmp_path / "mutated.csv"
    outcomes = {"read": 0, "rejected": 0}
    for data, mutated in mutated_logs(seed, 120):
        path.write_bytes(data)
        try:
            log = read_sightings(str(path))
        except ShardcastError as exc:
            error = f"error: {exc}\n"
            # A header turned data, or a tab in it, can move the first bad row.
            if isinstance(exc, ParseError) and 1 not in mutated:
                assert exc.line in mutated, (exc, sorted(mutated))
            outcomes["rejected"] += 1
        else:
            assert type(log) is SightingLog and len(log) > 0
            error = ""
            outcomes["read"] += 1
        for argv in (["analyze", "--k", "5", "--n", "6", "--t", "1", "--gaps", "1,3,30,60"],
                     ["encounters"]):
            try:
                code = main([*argv, "--input", str(path)])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert code in (0, 1, 2) and "Traceback" not in captured.err
            assert (code, captured.err) == (1 if error else 0, error), argv
    assert min(outcomes.values()) > 20, outcomes
