"""Seeded fuzz of sighting-log input: mutated rows of the bundled trace
through `read_sightings`, and the `analyze` and `encounters` subcommands on
the same files. Each read returns or raises a ShardcastError, and a rejected
file names a mutated line. Each subcommand exits 0, 1 or 2 with no
traceback, and fails exactly when the read does. Every read, of the fuzzed
files and of targeted rows after a known pair, also agrees with
`oracles.sightings_ref`: the same pairs, key order and timestamps, or the
same first bad line and message."""

import random
import re
from pathlib import Path

import pytest

import oracles
from shardcast.cli import main
from shardcast.errors import EmptyFile, ParseError, ShardcastError
from shardcast.exposure import SightingLog, read_sightings

TRACE = Path(__file__).resolve().parent.parent / "data" / "synthetic_trace.csv"

# Timestamps at and past every rule: signs, the 2**63 limit, and text that
# int() takes or refuses (underscores, other scripts' digits, floats).
TIMESTAMPS = ("-1", "+7", "-0", str(2**63 - 1), str(2**63), "9" * 400, "1.5", "1e3", "0x10",
              "1_000", "١٢", "", " ", "nan", "inf", "12a")
FIELDS = ("", " ", "x", "-70", "+3", "1.0", "é", "﻿")
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")
BREAK = re.compile(rb"\r\n?|\n")  # a line break as a text read finds it


def mutate_row(row: bytes, rng, delimiter=b",") -> bytes:
    """One row of the log with one defect."""
    fields = row.split(delimiter)
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
    return delimiter.join(fields)


def tab_rows():
    """The trace's rows tab-delimited, with a comma inside every device and
    scanner token."""
    rows = []
    for row in TRACE.read_bytes().split(b"\n")[:-1]:
        ts, device, scanner, rssi = row.split(b",")
        rows.append(b"\t".join((ts, device + b",x", b"y," + scanner, rssi)))
    return rows


def mutated_logs(seed, count, delimiter=b","):
    """The trace with one to four rows mutated, the header now and then;
    yields the file's bytes and the numbers of the lines the mutated rows
    span, counted as a text read counts them (a stray carriage return
    splits a row). With a tab delimiter the rows are `tab_rows()`."""
    rng = random.Random(seed)
    rows = TRACE.read_bytes().split(b"\n")[:-1] if delimiter == b"," else tab_rows()
    for _ in range(count):
        out = list(rows)
        changed = {0 if rng.random() < 0.05 else rng.randrange(len(out))
                   for _ in range(rng.randrange(1, 5))}
        for at in changed:
            out[at] = mutate_row(out[at], rng, delimiter)
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


def read_outcome(path):
    """`read_sightings` on path in the reference's terms: (pairs, error)."""
    try:
        log = read_sightings(str(path))
    except ParseError as exc:
        message = str(exc).removeprefix(f"line {exc.line}: ")
        assert str(exc) == f"line {exc.line}: {message}"
        return None, (exc.line, message)
    except EmptyFile:
        return {}, None
    assert all(stamps.typecode == "q" for stamps in log.pairs.values())
    return {pair: list(stamps) for pair, stamps in log.pairs.items()}, None


def assert_matches_reference(path):
    pairs, error = oracles.sightings_ref(str(path))
    got_pairs, got_error = read_outcome(path)
    assert got_error == error
    if pairs is not None:
        # Same pairs, same key order, same timestamps.
        assert list(got_pairs.items()) == list(pairs.items())
    return pairs, error


@pytest.mark.parametrize("delimiter", [b",", b"\t"], ids=["comma", "tab"])
@pytest.mark.parametrize("seed", [3, 4])
def test_mutated_logs_match_the_reference(seed, delimiter, tmp_path):
    path = tmp_path / "mutated.csv"
    outcomes = {"read": 0, "rejected": 0}
    for data, _mutated in mutated_logs(seed, 150, delimiter):
        path.write_bytes(data)
        pairs, _error = assert_matches_reference(path)
        outcomes["read" if pairs else "rejected"] += 1
    assert min(outcomes.values()) > 20, outcomes


KNOWN = "1,a,b,-70\n"  # every case below starts with a row of the pair (a, b)


@pytest.mark.parametrize("rows,expected", [
    ("x,a,b,-70\n", (2, "bad timestamp 'x'")),
    ("-5,a,b,-70\n", (2, "negative timestamp -5")),
    (f"{2**63},a,b,-70\n", (2, f"timestamp {2**63} out of range (must be below 2**63)")),
    (f"{2**63 - 1},a,b,-70\n", {("a", "b"): [1, 2**63 - 1]}),
    ("2,a,b,x\n", (2, "bad rssi 'x'")),
    ("2,a,b,\n", (2, "bad rssi ''")),
    ("2,a,b\n", (2, "expected at least 4 columns, got 3")),
    ("2,a,b,-70,9\n", {("a", "b"): [1, 2]}),
    ("2,a,b,x,-70\n", (2, "bad rssi 'x'")),  # the 4th column, not the last, is the RSSI
    ("2,a,b,c,-70\n", (2, "bad rssi 'c'")),
    ("2, a ,b,-70\n0,a,\tb ,-70\n", {("a", "b"): [0, 1, 2]}),
    (" 2 ,a,b, -70 \n", {("a", "b"): [1, 2]}),
    ("2, ,b,-70\n", (2, "empty device or scanner token")),
    ("\n  \n2,a,b,-70\r\n", {("a", "b"): [1, 2]}),
    ("2,b,a,-70\n3,a,b,-70\n", {("a", "b"): [1, 3], ("b", "a"): [2]}),
], ids=["bad-timestamp", "negative-timestamp", "timestamp-2**63", "timestamp-2**63-1",
        "bad-rssi", "empty-rssi", "3-columns", "5-columns", "5-columns-bad-4th",
        "5-columns-shifted", "padded-tokens", "padded-numbers", "blank-token",
        "blank-lines", "swapped-pair"])
def test_rows_after_a_known_pair(rows, expected, tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(KNOWN + rows, newline="")
    pairs, error = assert_matches_reference(path)
    assert (error if isinstance(expected, tuple) else pairs) == expected


def test_tab_log_with_commas_inside_tokens(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("ts\tdevice\tscanner\trssi\n"
                    "1\ta,x\tb\t-70\n"
                    "2\ta\tx,b\t-70\n"
                    "3\ta,x\tb\t-71\n"
                    "4\ta,x,b\t-70\n")
    assert assert_matches_reference(path) == (None, (5, "expected at least 4 columns, got 3"))
    path.write_text(path.read_text().replace("4\ta,x,b\t-70\n", "4\ta\tx,b\t-70\t1\n"))
    assert assert_matches_reference(path) == (
        {("a,x", "b"): [1, 3], ("a", "x,b"): [2, 4]}, None)


def test_one_entry_per_pair_whatever_its_text(tmp_path):
    """Rows of one pair written with and without padding and extra columns
    all land in that pair's one entry, under one interned string per token."""
    rng = random.Random(5)
    forms = ("{ts},{d},{s},-70", "{ts}, {d},{s} ,-70", "{ts},{d},{s},-70,extra",
             "{ts},  {d} ,{s},-70,,", " {ts} ,{d},{s}, -70 ")
    devices, scanners = ("d1", "d2", "d3"), ("s1", "s2")
    rows = [rng.choice(forms).format(ts=ts, d=rng.choice(devices), s=rng.choice(scanners))
            for ts in range(400)]
    path = tmp_path / "log.csv"
    path.write_text("\n".join(rows) + "\n")
    pairs, _error = assert_matches_reference(path)
    log = read_sightings(str(path))
    assert len(log.pairs) == len(pairs) == len(devices) * len(scanners)
    tokens = {}
    for pair in log.pairs:
        for token in pair:
            assert tokens.setdefault(token, token) is token
