"""Tests for sighting-log ingestion, encounters, and exposure accounting."""

import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import oracles
from shardcast import EmptyFile, InvalidConfig, InvalidScheme, ParseError
from shardcast.exposure import (
    ENCOUNTER_HEADER,
    EXPOSURE_HEADER,
    Encounter,
    ExposureReport,
    ExposureScheme,
    Sighting,
    SightingLog,
    compute_raw_exposure,
    compute_scheme_exposure,
    encounter_statistics,
    extract_encounters,
    read_sightings,
    write_encounter_report,
    write_exposure_report,
)


def make_rows(seed, count=60, t_max=200):
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        rows.append(
            (
                rng.randrange(t_max),
                rng.choice(["dA", "dB", "dC"]),
                rng.choice(["s1", "s2"]),
                -40 - rng.randrange(50),
            )
        )
    return rows


def as_sightings(rows):
    return [Sighting(*row) for row in rows]


def make_rows_with_repeats(seed, count=60, t_max=60):
    """make_rows on a short span, plus exact copies of some rows, so most
    pairs see the same timestamp more than once."""
    rows = make_rows(seed, count, t_max)
    rows += random.Random(seed).sample(rows, count // 4)
    return rows


def write_log(path, rows):
    path.write_text("timestamp,device_id,scanner_id,rssi\n"
                    + "".join(f"{ts},{dev},{sc},{rssi}\n" for ts, dev, sc, rssi in rows))
    return str(path)


# -- ingestion ------------------------------------------------------------


def timelines(log):
    return {pair: list(stamps) for pair, stamps in log.pairs.items()}


def test_read_comma_with_header(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "timestamp,device_id,scanner_id,rssi\n"
        "12,devA,scan1,-70\n"
        "3,devB,scan2,-55\n"
    )
    log = read_sightings(str(path))
    assert timelines(log) == {("devA", "scan1"): [12], ("devB", "scan2"): [3]}
    assert len(log) == 2


def test_read_tab_without_header(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("5\tdevA\tscan1\t-60\n\t\t\t\n \t \t \t \n9\tdevA\tscan1\t-61\n")
    log = read_sightings(str(path))
    assert timelines(log) == {("devA", "scan1"): [5, 9]}


def test_read_skips_blank_lines_and_ignores_extra_columns(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("\n7,devA,scan1,-50,extra,fields\n\n   \n2,devB,scan1,-51\n")
    log = read_sightings(str(path))
    assert timelines(log) == {("devA", "scan1"): [7], ("devB", "scan1"): [2]}
    assert len(log) == 2


def test_read_sorts_by_timestamp_then_tokens(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("9,z,s1,-40\n9,a,s2,-40\n9,a,s1,-40\n1,z,s9,-40\n"
                    " 4 , a , s1 , -41 \n9,a,s1,-40\n")
    log = read_sightings(str(path))
    assert timelines(log) == {
        ("z", "s1"): [9], ("a", "s2"): [9], ("a", "s1"): [4, 9, 9], ("z", "s9"): [1]
    }
    assert len(log) == 6


@pytest.mark.parametrize(
    "body,line",
    [
        ("1,devA,scan1,-50\n2,devB,scan1,loud\n", 2),
        ("1,devA,scan1,-50\n-3,devB,scan1,-50\n", 2),
        ("1,devA,scan1,-50\n2,devB,scan1\n", 2),
        ("ts,dev,sc,rssi\nsoon,devA,scan1,-50\n", 2),
        ("1,,scan1,-50\n", 1),
        ("1,devA,,-50\n", 1),
        ("1,devA,scan1,-50\n9223372036854775808,devA,scan1,-50\n", 2),
        ("1,devA,scan1,-50\n-3,devA,scan1,-50\n", 2),
        ("1,devA,scan1,-50\n2,devA,scan1,-5O\n", 2),
    ],
)
def test_read_reports_offending_line(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ParseError) as info:
        read_sightings(str(path))
    assert info.value.line == line


@pytest.mark.parametrize("rows_before", [2, 5000])  # inside and past the first read chunk
def test_read_rejects_bytes_that_are_not_utf8(tmp_path, rows_before):
    path = tmp_path / "bad.csv"
    good = "".join(f"{ts},devA,scan1,-50\n" for ts in range(rows_before))
    path.write_bytes(b"ts,dev,sc,rssi\n" + good.encode() + b"9,dev\xff,scan1,-50\n1,d,s,-1\n")
    with pytest.raises(ParseError) as info:
        read_sightings(str(path))
    assert info.value.line == rows_before + 2
    assert str(info.value).endswith("not UTF-8 text")


@pytest.mark.parametrize("rows_before", [0, 5000])  # inside and past the first read chunk
def test_read_reports_the_first_bad_line(tmp_path, rows_before):
    # A bad timestamp and a byte that is not UTF-8, in both orders: the
    # earlier line's error is raised, though the read decodes both at once.
    path = tmp_path / "bad.csv"
    good = "".join(f"{ts},devA,scan1,-50\n" for ts in range(rows_before)).encode()
    bad_ts, bad_byte = b"x7,dev,scan1,-50\n", b"9,dev\xff,scan1,-50\n"
    for first, second, message in ((bad_ts, bad_byte, "bad timestamp 'x7'"),
                                   (bad_byte, bad_ts, "not UTF-8 text")):
        path.write_bytes(b"ts,dev,sc,rssi\n" + good + b"1,d,s,-1\n" + first + b"2,d,s,-1\n"
                         + second)
        with pytest.raises(ParseError) as info:
            read_sightings(str(path))
        assert info.value.line == rows_before + 3
        assert str(info.value).endswith(message)


def test_file_and_memory_logs_agree(tmp_path):
    scheme = ExposureScheme(3, 5, 2)
    for seed in range(5):
        rows = make_rows_with_repeats(seed)
        from_file = read_sightings(write_log(tmp_path / f"log{seed}.csv", rows))
        from_rows = SightingLog.from_sightings(as_sightings(rows))
        assert from_file == from_rows
        assert len(from_file) == len(rows)
        for align in ("grid", "device"):
            assert compute_scheme_exposure(from_file, scheme, align) == \
                compute_scheme_exposure(as_sightings(rows), scheme, align)
        assert extract_encounters(from_file, 2) == extract_encounters(as_sightings(rows), 2)
        assert encounter_statistics(from_file, [0, 2, 9]) == \
            encounter_statistics(as_sightings(rows), [0, 2, 9])


def test_read_and_reports_stay_compact(tmp_path):
    """Reading and both reports peak under 64 bytes of Python memory per row."""
    rng = random.Random(11)
    rows = sorted(
        (ts, f"d{dev}", f"s{sc}", -40 - rng.randrange(50))
        for dev in range(30)
        for sc in range(4)
        for ts in rng.sample(range(40_000), 200)
    )
    path = write_log(tmp_path / "big.csv", rows)
    tracemalloc.start()
    try:
        log = read_sightings(path)
        report = compute_scheme_exposure(log, ExposureScheme(3, 5, 10))
        table = encounter_statistics(log, [1, 3, 30, 60])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 24_000 and report.raw_exposure_s == len(rows)
    assert table[-1][1] >= 120
    assert peak < 64 * len(rows), f"{peak / len(rows):.1f} B/row"


def test_read_empty_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        read_sightings(str(empty))
    header_only = tmp_path / "header.csv"
    header_only.write_text("timestamp,device_id,scanner_id,rssi\n")
    with pytest.raises(EmptyFile):
        read_sightings(str(header_only))


# open() takes an int as a file descriptor and closes it when done, so each
# call runs in a child process, whose stdin and stdout are checked afterwards.
PATHS_THAT_ARE_NOT_PATHS = """
import os
from shardcast.errors import InvalidConfig
from shardcast.exposure import read_sightings
from shardcast.simulator import load_sim_configs

for call, path in ((read_sightings, True), (read_sightings, 0), (read_sightings, 1),
                   (read_sightings, b"log.csv"), (load_sim_configs, 1), (load_sim_configs, 2.5)):
    try:
        call(path)
    except InvalidConfig as exc:
        assert exc.fields == ("path",), exc.fields
    else:
        raise AssertionError(f"{call.__name__}({path!r}) returned")
os.fstat(0)
print("stdin and stdout are open")
"""


def test_a_path_must_be_a_str_or_path_like(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", PATHS_THAT_ARE_NOT_PATHS], input="",
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "stdin and stdout are open\n"
    rows = make_rows(3, count=5)
    assert read_sightings(Path(write_log(tmp_path / "log.csv", rows))) == \
        SightingLog.from_sightings(as_sightings(rows))


# -- scheme validation ----------------------------------------------------


def test_scheme_validation():
    ExposureScheme(1, 1, 1)  # identity configuration is legal
    ExposureScheme(3, 5, 10)
    for k, n, t in ((0, 5, 1), (6, 5, 1), (3, 5, 0), (-1, 1, 1)):
        with pytest.raises(InvalidScheme):
            ExposureScheme(k, n, t)
    with pytest.raises(InvalidScheme):
        ExposureScheme(2, 4, 1.5)


# -- exposure -------------------------------------------------------------


def test_identity_scheme_counts_every_second():
    rows = [(t, "dA", "s1", -50) for t in (0, 3, 4, 9)]
    report = compute_scheme_exposure(as_sightings(rows), ExposureScheme(1, 1, 1))
    assert report.slots_exposed == 4
    assert report.total_exposure_s == 4
    assert report.raw_exposure_s == 4
    assert report.reduction_factor == 1.0


def test_window_threshold_boundary():
    scheme = ExposureScheme(3, 5, 2)  # 10-second windows of 2-second slots
    below = as_sightings([(0, "dA", "s1", -50), (1, "dA", "s1", -50),
                          (4, "dA", "s1", -50)])  # slots 0 and 2 only
    report = compute_scheme_exposure(below, scheme)
    assert report.slots_exposed == 0
    assert report.total_exposure_s == 0
    at = as_sightings([(0, "dA", "s1", -50), (4, "dA", "s1", -50),
                       (9, "dA", "s1", -50)])  # slots 0, 2, 4
    report = compute_scheme_exposure(at, scheme)
    assert report.slots_exposed == 3
    assert report.total_exposure_s == 6
    assert report.raw_exposure_s == 3


def test_windows_and_pairs_are_independent():
    scheme = ExposureScheme(2, 3, 1)  # 3-second windows
    rows = as_sightings([
        (0, "dA", "s1", -50), (1, "dA", "s1", -50),   # window 0: 2 slots, counts
        (3, "dA", "s1", -50),                          # window 1: 1 slot, below k
        (0, "dA", "s2", -50),                          # other scanner alone: below k
        (6, "dB", "s1", -50), (7, "dB", "s1", -50), (8, "dB", "s1", -50),
    ])
    report = compute_scheme_exposure(rows, scheme)
    assert report.slots_exposed == 2 + 3
    assert report.raw_exposure_s == 7


def test_grid_vs_device_alignment():
    scheme = ExposureScheme(2, 2, 5)  # 10-second windows
    rows = as_sightings([(7, "dA", "s1", -50), (12, "dA", "s1", -50)])
    on_grid = compute_scheme_exposure(rows, scheme, align="grid")
    # Grid windows [0,10) and [10,20) each see a single slot.
    assert on_grid.slots_exposed == 0
    anchored = compute_scheme_exposure(rows, scheme, align="device")
    # Anchored at 7, both sightings share window [7,17) in distinct slots.
    assert anchored.slots_exposed == 2
    with pytest.raises(ValueError):
        compute_scheme_exposure(rows, scheme, align="middle")


def test_exposure_matches_bruteforce_oracle():
    schemes = [(1, 1, 1), (3, 5, 1), (4, 6, 5), (2, 3, 10)]
    for seed in range(30):
        rows = make_rows(seed)
        sightings = as_sightings(rows)
        for k, n, t in schemes:
            report = compute_scheme_exposure(sightings, ExposureScheme(k, n, t))
            assert report.slots_exposed == oracles.exposure_slots_ref(rows, k, n, t)
            assert report.raw_exposure_s == len(rows)


def test_device_alignment_matches_bruteforce_oracle():
    schemes = [(1, 1, 1), (3, 5, 1), (4, 6, 5), (2, 3, 10)]
    for seed in range(30):
        rows = make_rows(seed) if seed % 2 else make_rows_with_repeats(seed)
        sightings = as_sightings(rows)
        for k, n, t in schemes:
            report = compute_scheme_exposure(sightings, ExposureScheme(k, n, t), "device")
            assert report.slots_exposed == oracles.exposure_slots_device_ref(rows, k, n, t)


def test_raw_exposure_is_row_count():
    rows = as_sightings(make_rows(4, count=37))
    assert compute_raw_exposure(rows) == 37
    assert compute_raw_exposure([]) == 0


def test_reduction_edge_cases():
    scheme = ExposureScheme(3, 5, 1)
    assert ExposureReport(scheme, 0, 10).reduction_factor == math.inf
    assert math.isnan(ExposureReport(scheme, 0, 0).reduction_factor)
    assert ExposureReport(scheme, 4, 10).reduction_factor == 2.5


def test_total_exposure_is_slots_times_t():
    report = ExposureReport(ExposureScheme(2, 4, 30), 7, 1000)
    assert report.total_exposure_s == 210


# -- encounters -----------------------------------------------------------


def test_encounter_examples():
    def stamps(ts_list, gap):
        rows = as_sightings([(t, "dA", "s1", -50) for t in ts_list])
        return extract_encounters(rows, gap)

    one = stamps([0, 1, 2], 1)
    assert len(one) == 1 and one[0].duration == 3 and one[0].sighting_count == 3
    two = stamps([0, 5], 3)
    assert [e.duration for e in two] == [1, 1]
    merged = stamps([0, 3], 3)
    assert len(merged) == 1 and merged[0].duration == 4
    zero_gap = stamps([0, 0, 1], 0)
    assert [(e.first_ts, e.last_ts, e.sighting_count) for e in zero_gap] == [
        (0, 0, 2), (1, 1, 1)
    ]


def test_encounters_partition_sightings():
    rows = as_sightings(make_rows(17, count=80))
    for gap in (0, 2, 10):
        encounters = extract_encounters(rows, gap)
        assert sum(e.sighting_count for e in encounters) == len(rows)
        assert all(e.first_ts <= e.last_ts for e in encounters)
        assert all(e.duration >= 1 for e in encounters)
        pairs = [(e.device_id, e.scanner_id) for e in encounters]
        assert pairs == sorted(pairs)


def test_encounters_match_oracle():
    for seed in range(20):
        rows = make_rows(seed + 100)
        sightings = as_sightings(rows)
        for gap in (0, 1, 3, 30):
            encounters = extract_encounters(sightings, gap)
            count, duration = oracles.encounters_ref(rows, gap)
            assert len(encounters) == count
            assert sum(e.duration for e in encounters) == duration


def test_encounter_statistics_match_oracle():
    gaps = [0, 1, 3, 30, 100]
    for seed in range(20):
        rows = make_rows_with_repeats(seed + 200)
        table = encounter_statistics(as_sightings(rows), gaps)
        assert table == [(gap, *oracles.encounters_ref(rows, gap)) for gap in gaps]


def test_encounter_gap_must_be_non_negative():
    rows = as_sightings(make_rows(1, count=5))
    with pytest.raises(ValueError):
        extract_encounters(rows, -1)
    with pytest.raises(ValueError):
        encounter_statistics(rows, [3, -1])


def test_argument_errors_are_typed():
    rows = as_sightings(make_rows(2, count=5))
    with pytest.raises(InvalidConfig) as info:
        encounter_statistics(rows, [-7])
    assert info.value.fields == ("max_gap",)
    with pytest.raises(InvalidConfig) as info:
        compute_scheme_exposure(rows, ExposureScheme(2, 2, 5), align="")
    assert info.value.fields == ("align",)


@pytest.mark.parametrize("gap", ["5", None, math.nan])
def test_a_gap_must_be_a_number(gap):
    rows = as_sightings(make_rows(2, count=5))
    with pytest.raises(InvalidConfig) as info:
        extract_encounters(rows, gap)
    assert info.value.fields == ("max_gap",)
    with pytest.raises(InvalidConfig) as info:
        encounter_statistics(rows, [3, gap])
    assert info.value.fields == ("max_gap",)


def test_gaps_must_be_a_collection():
    with pytest.raises(InvalidConfig) as info:
        encounter_statistics(as_sightings(make_rows(2, count=5)), 5)
    assert info.value.fields == ("max_gap",)


def test_encounter_statistics_rows():
    rows = as_sightings([(0, "dA", "s1", -50), (4, "dA", "s1", -50)])
    assert encounter_statistics(rows, [1, 4]) == [(1, 2, 2), (4, 1, 5)]
    assert encounter_statistics([], [1, 3]) == [(1, 0, 0), (3, 0, 0)]


# -- writers --------------------------------------------------------------


def test_write_exposure_report_format():
    reports = [
        ExposureReport(ExposureScheme(3, 5, 1), 12, 30),
        ExposureReport(ExposureScheme(1, 1, 1), 5, 5),
    ]
    out = io.StringIO()
    write_exposure_report(reports, out)
    assert out.getvalue().splitlines() == [
        EXPOSURE_HEADER,
        "1\t3\t5\t12\t12\t2.500",
        "1\t1\t1\t5\t5\t1.000",
    ]
    assert EXPOSURE_HEADER.split("\t") == [
        "t", "k", "n", "slots_exposed", "total_exposure_s", "reduction_factor"
    ]


def test_write_encounter_report_format():
    out = io.StringIO()
    write_encounter_report([(1, 846, 2096), (30, 6, 3578)], out)
    assert out.getvalue().splitlines() == [
        ENCOUNTER_HEADER,
        "1\t846\t2096",
        "30\t6\t3578",
    ]
