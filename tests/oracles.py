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
