"""GF(2^8) arithmetic under the reduction polynomial 0x11B.

The field is x^8 + x^4 + x^3 + x + 1 with generator 3. ``MUL[a]`` is the
256-byte table of ``a*b`` for every byte ``b`` and is the field's only
multiply: `gf_mul` reads it, and the share kernels scale a whole body with
one ``bytes.translate(MUL[a])``. It is built from 256-entry log/exp tables,
which also give inverses and Lagrange weights. The tables come from a
bitwise carry-less multiply and are checked against it at import, so a
corrupted table can never ship silently. Acceptance check 2
(``tests/test_acceptance.py::test_02_field_soundness``) compares every
product pair and every inverse with an independent reference.
"""

from .errors import ZeroInverse

POLY = 0x11B
GENERATOR = 0x03


def clmul(a: int, b: int) -> int:
    """Shift-and-add field multiply, reducing after every doubling step."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x100:
            a ^= POLY
        b >>= 1
    return p


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        exp[i + 255] = x
        log[x] = i
        x = clmul(x, GENERATOR)
    if x != 1:
        raise AssertionError("generator does not have order 255")
    return exp, log


EXP, LOG = _build_tables()


def _build_mul() -> tuple[bytes, ...]:
    exp = bytes(EXP)
    logs = bytes(LOG[1:])  # log b for b = 1..255
    rows = [bytes(256)]
    for a in range(1, 256):
        la = LOG[a]
        rows.append(b"\x00" + logs.translate(exp[la : la + 256]))
    return tuple(rows)


MUL = _build_mul()


def gf_mul(a: int, b: int) -> int:
    return MUL[a][b]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return EXP[255 - LOG[a]]


def _validate_tables() -> None:
    # Structural: exp must enumerate all 255 nonzero elements exactly once,
    # with log the exact inverse mapping.
    if sorted(EXP[:255]) != list(range(1, 256)):
        raise AssertionError("exp table is not a permutation of 1..255")
    for value in range(1, 256):
        if EXP[LOG[value]] != value:
            raise AssertionError("log/exp tables disagree")
    # Sampled product comparison against the bitwise multiply. The
    # exhaustive 65,536-pair sweep is acceptance check 2.
    probes = (0, 1, 2, 3, 0x1B, 0x53, 0x80, 0xCA, 0xFE, 0xFF)
    for a in probes:
        for b in probes:
            if gf_mul(a, b) != clmul(a, b):
                raise AssertionError(f"table product wrong for {a:#x}*{b:#x}")


_validate_tables()

