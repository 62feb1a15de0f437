"""Trace analysis: sighting logs, encounters, and exposure accounting.

A sighting log is a delimiter-separated text file (comma or tab,
auto-detected) whose rows carry at least four columns: integer timestamp
in seconds (below 2**63), device token, scanner token, signed RSSI. A
header row is recognized and skipped when its first field is not an
integer. In memory a log is a ``SightingLog``: one sorted timestamp
array per (device, scanner) pair.

Two exposure measures are computed per (device, scanner) timeline:

* raw exposure — every sighting counts for one second;
* scheme exposure — time is cut into windows of ``n*t`` seconds, each
  split into ``n`` slots of ``t`` seconds; a window counts only when
  sightings land in at least ``k`` distinct slots, and then contributes
  one slot per observed slot.

Window alignment defaults to the shared ``n*t`` grid (equivalently: each
device's first sighting truncated down to a multiple of ``n*t``); the
``align="device"`` variant anchors windows at the device's actual first
sighting instead.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import le, sub
from typing import Iterable, TextIO

from .errors import EmptyFile, InvalidConfig, InvalidScheme, ParseError, read_utf8


@dataclass(frozen=True)
class Sighting:
    timestamp: int
    device_id: str
    scanner_id: str
    rssi: int


@dataclass(frozen=True)
class Encounter:
    device_id: str
    scanner_id: str
    first_ts: int
    last_ts: int
    sighting_count: int

    @property
    def duration(self) -> int:
        """Seconds of presence; a lone sighting counts for one second."""
        return self.last_ts - self.first_ts + 1


@dataclass(frozen=True)
class ExposureScheme:
    """Threshold grid for exposure accounting.

    Unlike the share-splitting parameters, ``k = n = 1`` is allowed here:
    it is the identity configuration where every observed second counts.
    """

    k: int
    n: int
    t: int

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.k, self.n, self.t)):
            raise InvalidScheme("k, n and t must be integers")
        if not 1 <= self.k <= self.n:
            raise InvalidScheme(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if self.t < 1:
            raise InvalidScheme(f"slot length must be at least 1 s, got {self.t}")


@dataclass(frozen=True)
class ExposureReport:
    scheme: ExposureScheme
    slots_exposed: int
    raw_exposure_s: int

    @property
    def total_exposure_s(self) -> int:
        return self.slots_exposed * self.scheme.t

    @property
    def reduction_factor(self) -> float:
        if self.total_exposure_s == 0:
            return math.inf if self.raw_exposure_s else math.nan
        return self.raw_exposure_s / self.total_exposure_s

    def to_line(self) -> str:
        s = self.scheme
        return (
            f"{s.t}\t{s.k}\t{s.n}\t{self.slots_exposed}"
            f"\t{self.total_exposure_s}\t{self.reduction_factor:.3f}"
        )


EXPOSURE_HEADER = "t\tk\tn\tslots_exposed\ttotal_exposure_s\treduction_factor"
ENCOUNTER_HEADER = "max_gap_s\tencounters\ttotal_duration_s"


# -- ingestion -----------------------------------------------------------

# Timestamps are stored as signed 64-bit integers (array typecode "q").
TIMESTAMP_LIMIT = 2**63


@dataclass
class SightingLog:
    """A sighting log reduced to what the analyses read.

    ``pairs`` maps each (device, scanner) pair to its timestamps, sorted,
    in a compact ``array('q')``: about 8 bytes per row plus a fixed cost per
    pair. RSSI is validated on input but not kept. ``len(log)`` is the
    number of rows.
    """

    pairs: dict[tuple[str, str], array]

    def __len__(self) -> int:
        return sum(map(len, self.pairs.values()))

    @classmethod
    def from_sightings(cls, sightings: Iterable[Sighting]) -> SightingLog:
        """Group in-memory sightings by (device, scanner)."""
        pairs: dict[tuple[str, str], array] = {}
        for s in sightings:
            pairs.setdefault((s.device_id, s.scanner_id), array("q")).append(s.timestamp)
        return _sorted_log(pairs)


def _sorted_log(pairs: dict[tuple[str, str], array]) -> SightingLog:
    for stamps in pairs.values():
        if not all(map(le, stamps, islice(stamps, 1, None))):
            stamps[:] = array("q", sorted(stamps))
    return SightingLog(pairs)


def _as_log(sightings: SightingLog | Iterable[Sighting]) -> SightingLog:
    if isinstance(sightings, SightingLog):
        return sightings
    return SightingLog.from_sightings(sightings)


def read_sightings(path: str) -> SightingLog:
    """Load a sighting log in one pass into per-pair sorted timestamp arrays.

    Raises ParseError with the offending line number, or EmptyFile when
    no data rows are present.
    """
    pairs = read_utf8(path, _sighting_pairs)
    if not pairs:
        raise EmptyFile(f"no sighting rows in {path}")
    return _sorted_log(pairs)


def _sighting_pairs(lines: Iterable[str]) -> dict[tuple[str, str], array]:
    """Each (device, scanner) pair's timestamps in line order; raises
    ParseError at the first bad row."""
    numbered = enumerate(lines, start=1)
    for lineno, line in numbered:
        if line.strip():
            break
    else:
        return {}
    delimiter = "\t" if "\t" in line else ","
    try:
        int(line.split(delimiter)[0])
    except ValueError:
        pass  # header row
    else:
        numbered = chain([(lineno, line)], numbered)
    # Each pair's timestamps under the key device + delimiter + scanner,
    # built from the stripped tokens. A key holds exactly one delimiter and
    # no padding, so only an unpadded four-column row can match one, and
    # the full rules below would give that row the same pair: such a row
    # needs only its timestamp and RSSI read. Every other row, and one
    # whose numbers fail, takes the full rules.
    index: dict[str, array] = {}
    for lineno, line in numbered:
        ts_text, _, rest = line.partition(delimiter)
        key, _, rssi_text = rest.rpartition(delimiter)
        stamps = index.get(key)
        if stamps is not None:
            try:
                ts = int(ts_text)
                int(rssi_text)
            except ValueError:
                pass
            else:
                if 0 <= ts < TIMESTAMP_LIMIT:
                    stamps.append(ts)
                    continue
        # int() ignores surrounding whitespace as str.strip() does, so only
        # the tokens are stripped; a blank line fails the first int() or
        # has fewer than 4 columns, and is skipped there.
        fields = line.split(delimiter)
        if len(fields) < 4:
            if not line.strip():
                continue
            raise ParseError(lineno, f"expected at least 4 columns, got {len(fields)}")
        ts_text, device, scanner, rssi_text = fields[:4]
        try:
            ts = int(ts_text)
        except ValueError:
            if not line.strip():
                continue
            raise ParseError(lineno, f"bad timestamp {ts_text.strip()!r}") from None
        if ts < 0:
            raise ParseError(lineno, f"negative timestamp {ts}")
        if ts >= TIMESTAMP_LIMIT:
            raise ParseError(lineno, f"timestamp {ts} out of range (must be below 2**63)")
        try:
            int(rssi_text)
        except ValueError:
            raise ParseError(lineno, f"bad rssi {rssi_text.strip()!r}") from None
        device = device.strip()
        scanner = scanner.strip()
        if not device or not scanner:
            raise ParseError(lineno, "empty device or scanner token")
        key = device + delimiter + scanner
        stamps = index.get(key)
        if stamps is None:
            stamps = index[key] = array("q")
        stamps.append(ts)
    pairs: dict[tuple[str, str], array] = {}
    for key, stamps in index.items():
        device, _, scanner = key.partition(delimiter)
        pairs[sys.intern(device), sys.intern(scanner)] = stamps
    return pairs


# -- encounters ----------------------------------------------------------


def _check_gap(max_gap: int) -> None:
    if not (isinstance(max_gap, (int, float)) and max_gap >= 0):
        raise InvalidConfig(f"max_gap {max_gap!r} must be a non-negative number", "max_gap")


def extract_encounters(
    sightings: SightingLog | Iterable[Sighting], max_gap: int
) -> list[Encounter]:
    """Maximal per-pair runs of sightings with gaps of at most max_gap seconds."""
    _check_gap(max_gap)
    out: list[Encounter] = []
    for (device, scanner), stamps in sorted(_as_log(sightings).pairs.items()):
        first = prev = stamps[0]
        count = 0
        for ts in stamps:
            if ts - prev > max_gap:
                out.append(Encounter(device, scanner, first, prev, count))
                first = ts
                count = 0
            prev = ts
            count += 1
        out.append(Encounter(device, scanner, first, prev, count))
    return out


def encounter_statistics(
    sightings: SightingLog | Iterable[Sighting], gaps: Iterable[int]
) -> list[tuple[int, int, int]]:
    """One (gap, encounter_count, total_duration_s) row per gap value.

    All gaps are answered from one histogram of the differences d between
    a pair's consecutive timestamps: an encounter ends at every difference
    above the gap, and its duration is one second plus the differences
    inside it, so for gap g >= 0
    ``count = pairs + #{d > g}`` and ``duration = count + sum(d <= g)``.
    """
    try:
        gaps = list(gaps)
    except TypeError:
        raise InvalidConfig(f"gaps {gaps!r} must be a list of numbers", "max_gap") from None
    for gap in gaps:
        _check_gap(gap)
    log = _as_log(sightings)
    hist: Counter[int] = Counter()
    for stamps in log.pairs.values():
        hist.update(map(sub, islice(stamps, 1, None), stamps))
    out = []
    for gap in gaps:
        count = len(log.pairs) + sum(n for d, n in hist.items() if d > gap)
        inside = sum(d * n for d, n in hist.items() if d <= gap)
        out.append((gap, count, count + inside))
    return out


# -- exposure ------------------------------------------------------------


def compute_raw_exposure(sightings: SightingLog | Iterable[Sighting]) -> int:
    """Seconds of exposure with every sighting worth one second."""
    return len(_as_log(sightings))


def compute_scheme_exposure(
    sightings: SightingLog | Iterable[Sighting],
    scheme: ExposureScheme,
    align: str = "grid",
) -> ExposureReport:
    """Threshold-gated exposure over n*t-second windows of t-second slots.

    ``align="grid"`` (default) cuts windows on the shared n*t grid;
    ``align="device"`` anchors each device's windows at its own first
    sighting. A (device, scanner, window) counts only when its sightings
    cover at least k distinct slots, and then contributes one slot of t
    seconds per distinct observed slot.
    """
    if align not in ("grid", "device"):
        raise InvalidConfig(f"unknown alignment {align!r}", "align")
    log = _as_log(sightings)
    anchors: dict[str, int] = {}
    if align == "device":
        for (device, _scanner), stamps in log.pairs.items():
            if device not in anchors or stamps[0] < anchors[device]:
                anchors[device] = stamps[0]
    k, n, t = scheme.k, scheme.n, scheme.t
    exposed = 0
    for (device, _scanner), stamps in log.pairs.items():
        # Stamps are sorted, so each window's slots arrive together and in
        # order: count the slot changes, and settle a window when it ends.
        anchor = anchors.get(device, 0)
        window = slot = None
        distinct = 0
        for ts in stamps:
            s = (ts - anchor) // t
            if s != slot:
                slot = s
                if s // n != window:
                    if distinct >= k:
                        exposed += distinct
                    window = s // n
                    distinct = 0
                distinct += 1
        if distinct >= k:
            exposed += distinct
    return ExposureReport(scheme, exposed, len(log))


# -- report writers ------------------------------------------------------


def write_exposure_report(reports: Iterable[ExposureReport], out: TextIO) -> None:
    out.write(EXPOSURE_HEADER + "\n")
    for report in reports:
        out.write(report.to_line() + "\n")


def write_encounter_report(rows: Iterable[tuple[int, int, int]], out: TextIO) -> None:
    out.write(ENCOUNTER_HEADER + "\n")
    for gap, count, duration in rows:
        out.write(f"{gap}\t{count}\t{duration}\n")
