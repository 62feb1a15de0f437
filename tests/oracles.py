"""Independent reference implementations used to pin expected test values.

Everything in this module is written from first principles (bit-level
arithmetic, exhaustive enumeration, window-by-window rescans) and stays
separate from the package under test, so expected values never depend on
the code they are meant to check.
"""

from functools import lru_cache

REDUCING_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def gf_mul_ref(a: int, b: int) -> int:
    """Field multiply as a full 15-bit carry-less product, then long division."""
    prod = 0
    for i in range(8):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(14, 7, -1):
        if prod & (1 << bit):
            prod ^= REDUCING_POLY << (bit - 8)
    return prod


@lru_cache(maxsize=None)
def gf_inv_ref(a: int) -> int:
    """Inverse by exhaustive search over the multiplicative group (memoised)."""
    for x in range(1, 256):
        if gf_mul_ref(a, x) == 1:
            return x
    raise ValueError("element has no inverse")


def gf_lagrange_ref(points, x_at=0):
    """Interpolate byte-wise polynomials at ``x_at`` over GF(2^8).

    ``points`` is a list of (x, ys) with equal-length ``ys`` byte strings.
    Implemented directly from the Lagrange basis product formula.
    """
    width = len(points[0][1])
    out = bytearray(width)
    for column in range(width):
        acc = 0
        for i, (xi, ys) in enumerate(points):
            term = ys[column]
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                num = xj ^ x_at
                den = xj ^ xi
                term = gf_mul_ref(term, gf_mul_ref(num, gf_inv_ref(den)))
            acc ^= term
        out[column] = acc
    return bytes(out)


CRC32_POLY_REFLECTED = 0xEDB88320  # reversed 0x04C11DB7


def crc32_ref(data: bytes) -> int:
    """Bitwise reflected CRC-32, init and final xor 0xFFFFFFFF."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLY_REFLECTED
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def exposure_slots_ref(rows, k: int, n: int, t: int) -> int:
    """Slots observed inside exposed windows, by brute-force window rescans.

    ``rows`` is an iterable of (timestamp, device, scanner, rssi) tuples.
    Windows lie on the absolute n*t grid; a window is exposed when the
    device/scanner pair was seen in at least k distinct t-second slots of it.
    Every window in a pair's span rescans the pair's full timestamp list,
    which is deliberately wasteful and deliberately simple.
    """
    pairs = {}
    for ts, dev, sc, _ in rows:
        pairs.setdefault((dev, sc), []).append(ts)
    span = n * t
    total = 0
    for stamps in pairs.values():
        first = min(stamps) // span
        last = max(stamps) // span
        for w in range(first, last + 1):
            start = w * span
            slots = set()
            for ts in stamps:
                if start <= ts < start + span:
                    slots.add((ts - start) // t)
            if len(slots) >= k:
                total += len(slots)
    return total


def exposure_slots_device_ref(rows, k: int, n: int, t: int) -> int:
    """As exposure_slots_ref, with windows anchored at each device's first
    sighting (over all of its scanners) instead of on the absolute grid.

    Windows are laid out one after another from the anchor until they pass
    the pair's last sighting, and each one rescans the pair's full list.
    """
    anchors = {}
    pairs = {}
    for ts, dev, sc, _ in rows:
        anchors[dev] = min(ts, anchors.get(dev, ts))
        pairs.setdefault((dev, sc), []).append(ts)
    span = n * t
    total = 0
    for (dev, _sc), stamps in pairs.items():
        start = anchors[dev]
        while start <= max(stamps):
            slots = set()
            for ts in stamps:
                if start <= ts < start + span:
                    slots.add((ts - start) // t)
            if len(slots) >= k:
                total += len(slots)
            start += span
    return total


def encounters_ref(rows, max_gap: int):
    """(encounter_count, total_duration) by per-pair index walking.

    An encounter is a maximal set of a pair's sightings where each
    consecutive timestamp difference is <= max_gap; its duration is
    last - first + 1 seconds.
    """
    pairs = {}
    for ts, dev, sc, _ in rows:
        pairs.setdefault((dev, sc), set()).add(ts)
    count = 0
    duration = 0
    for stamps in pairs.values():
        ordered = sorted(stamps)
        idx = 0
        while idx < len(ordered):
            end = idx
            while end + 1 < len(ordered) and ordered[end + 1] - ordered[end] <= max_gap:
                end += 1
            count += 1
            duration += ordered[end] - ordered[idx] + 1
            idx = end + 1
    return count, duration


ALTBEACON_CODE = (0xBE, 0xAC)


def altbeacon_frame_ref(mfg_id: int, share_id: int, body: bytes, ref_rssi: int,
                        reserved: int) -> bytes:
    """The 26-byte AltBeacon manufacturer data block, one byte at a time.

    Company id low byte first, the beacon code high byte first, then the
    20-byte beacon id (share id, 16 body bytes, three zero bytes), the
    reference RSSI in two's complement and the reserved byte.
    """
    out = [mfg_id % 256, mfg_id // 256, ALTBEACON_CODE[0], ALTBEACON_CODE[1], share_id]
    for byte in body:
        out.append(byte)
    out += [0, 0, 0]
    out.append(ref_rssi + 256 if ref_rssi < 0 else ref_rssi)
    out.append(reserved)
    assert len(out) == 26
    return bytes(out)


def altbeacon_parse_ref(frame) -> tuple:
    """Fields of a frame as (mfg_id, share_id, body, ref_rssi, reserved), or
    the name of the first check it fails: length, beacon code, share id."""
    data = [frame[i] for i in range(len(frame))]
    if len(data) != 26:
        return "BadLength"
    if (data[2], data[3]) != ALTBEACON_CODE:
        return "BadBeaconCode"
    if data[4] == 0:
        return "BadShareId"
    rssi = data[24] - 256 if data[24] >= 128 else data[24]
    return (data[0] + 256 * data[1], data[4], bytes(data[5:21]), rssi, data[25])


SIGHTING_TIMESTAMP_LIMIT = 2**63


def sightings_ref(path):
    """A sighting log read line by line by its documented rules.

    Returns (pairs, error). ``pairs`` maps each (device, scanner) pair, in
    order of first appearance, to its timestamps sorted; ``error`` is None
    or the (line, message) of the first bad line, and then ``pairs`` is
    None. Lines are counted as a text read counts them. Blank lines are
    skipped. The first other line picks the delimiter (tab if it holds
    one, else comma), and it is a header, skipped, when its first field is
    not an integer. Each data row needs four columns (more are ignored):
    a timestamp in [0, 2**63), a device and a scanner token, both
    non-empty once stripped, and an integer RSSI.
    """
    pairs = {}
    delimiter = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return None, (lineno, "not UTF-8 text")
            if not line.strip():
                continue
            if delimiter is None:
                delimiter = "\t" if "\t" in line else ","
                if not _is_int(line.split(delimiter)[0]):
                    continue
            fields = line.split(delimiter)
            if len(fields) < 4:
                return None, (lineno, f"expected at least 4 columns, got {len(fields)}")
            if not _is_int(fields[0]):
                return None, (lineno, f"bad timestamp {fields[0].strip()!r}")
            ts = int(fields[0])
            if ts < 0:
                return None, (lineno, f"negative timestamp {ts}")
            if ts >= SIGHTING_TIMESTAMP_LIMIT:
                return None, (lineno, f"timestamp {ts} out of range (must be below 2**63)")
            if not _is_int(fields[3]):
                return None, (lineno, f"bad rssi {fields[3].strip()!r}")
            device, scanner = fields[1].strip(), fields[2].strip()
            if not device or not scanner:
                return None, (lineno, "empty device or scanner token")
            pairs.setdefault((device, scanner), []).append(ts)
    return {pair: sorted(stamps) for pair, stamps in pairs.items()}, None


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True
