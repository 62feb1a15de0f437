"""Share splitting and recovery, with reference-route cross-checks."""

import itertools
import random

import pytest

from shardcast.errors import (
    DuplicateShareId,
    InvalidParams,
    LengthMismatch,
    WrongShareCount,
)
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams, recover, split

from oracles import gf_lagrange_ref, gf_mul_ref

CHI2_CRIT_DF255_P01 = 310.457


class ScriptedRng(RandomSource):
    """Returns pre-chosen bytes so polynomial coefficients are known."""

    def __init__(self, script: bytes):
        super().__init__(0)
        self._script = script

    def randbytes(self, n: int) -> bytes:
        out, self._script = self._script[:n], self._script[n:]
        assert len(out) == n, "script exhausted"
        return out


def test_params_validation():
    SchemeParams(2, 2)
    SchemeParams(2, 255)
    for k, n in [(1, 5), (0, 3), (6, 5), (2, 256), (300, 300)]:
        with pytest.raises(InvalidParams):
            SchemeParams(k, n)
    with pytest.raises(InvalidParams):
        SchemeParams(2.0, 4)


def test_split_shape_and_ids():
    rng = RandomSource(9)
    shares = split(b"\x00" * 16, SchemeParams(3, 7), rng)
    assert [sid for sid, _ in shares] == list(range(1, 8))
    assert all(len(body) == 16 for _, body in shares)


def test_round_trip_all_subsets_small():
    rng = RandomSource(21)
    for k, n in [(2, 2), (2, 4), (3, 5), (4, 4), (5, 6)]:
        params = SchemeParams(k, n)
        for _ in range(5):
            secret = rng.randbytes(16)
            shares = split(secret, params, rng)
            for subset in itertools.combinations(shares, k):
                assert recover(subset, k) == secret


def test_round_trip_arbitrary_length_secret():
    rng = RandomSource(5)
    for size in (1, 5, 33):
        secret = rng.randbytes(size)
        shares = split(secret, SchemeParams(2, 3), rng)
        assert recover(shares[1:], 2) == secret


def test_split_matches_direct_polynomial_evaluation():
    # Route one: the implementation with a scripted coefficient stream.
    # Route two: naive polynomial evaluation built on the long-division
    # field reference.
    rng = RandomSource(31)
    for k in range(2, 9):
        for n in (k, k + 1, k + 5):
            for width in (0, 1, 16, 33):
                secret = rng.randbytes(width)
                coeffs = rng.randbytes(width * (k - 1))  # per byte: a_1..a_{k-1}
                shares = split(secret, SchemeParams(k, n), ScriptedRng(coeffs))
                for x, body in shares:
                    expected = bytearray(secret)
                    for j in range(width):
                        power = 1
                        for c in range(k - 1):
                            power = gf_mul_ref(power, x)
                            expected[j] ^= gf_mul_ref(coeffs[j * (k - 1) + c], power)
                    assert body == bytes(expected), (k, n, width, x)


def test_recover_matches_lagrange_reference():
    rng = RandomSource(77)
    order = random.Random(77)
    for k in range(2, 9):
        for n in (k, k + 1, k + 5):
            for width in (0, 1, 16, 33):
                secret = rng.randbytes(width)
                shares = split(secret, SchemeParams(k, n), rng)
                subset = order.sample(shares, k)
                # Both orders: at least one of them is unsorted.
                for points in (subset, subset[::-1]):
                    assert recover(points, k) == gf_lagrange_ref(points, 0) == secret


def test_recover_error_paths():
    rng = RandomSource(3)
    shares = split(b"x" * 16, SchemeParams(3, 5), rng)
    with pytest.raises(WrongShareCount):
        recover(shares[:2], 3)
    with pytest.raises(WrongShareCount):
        recover(shares, 3)
    for k in (0, 3):
        with pytest.raises(WrongShareCount):
            recover([], k)
    with pytest.raises(DuplicateShareId):
        recover([shares[0], shares[0], shares[1]], 3)
    with pytest.raises(InvalidParams):
        recover([(0, b"a" * 16), shares[0], shares[1]], 3)
    with pytest.raises(InvalidParams):
        recover([(256, b"a" * 16), shares[0], shares[1]], 3)
    with pytest.raises(LengthMismatch):
        recover([shares[0], shares[1], (5, b"short")], 3)


def test_recover_needs_an_integer_threshold():
    shares = split(b"x" * 16, SchemeParams(2, 3), RandomSource(4))
    for call in (lambda: recover([(1, b"ab")], "1"), lambda: recover(shares[:2], 2.0),
                 lambda: recover(shares[:2], None)):
        with pytest.raises(InvalidParams, match="must be an integer"):
            call()


def test_wrong_subset_size_vs_threshold():
    # k-1 shares interpolate to *something*, but recover refuses the count.
    rng = RandomSource(13)
    secret = rng.randbytes(16)
    shares = split(secret, SchemeParams(4, 6), rng)
    with pytest.raises(WrongShareCount):
        recover(shares[:3], 4)


def test_below_threshold_bytes_are_uniform():
    # Any k-1 shares reveal nothing: pooled body bytes from repeated
    # splits of one fixed secret must be indistinguishable from uniform.
    # Chi-squared over 256 bins, df=255, critical value at p=0.01.
    rng = RandomSource(20260822)
    secret = bytes(range(16))
    params = SchemeParams(3, 5)
    counts = [0] * 256
    n_splits = 2000
    for _ in range(n_splits):
        shares = split(secret, params, rng)
        for _, body in shares[:2]:  # k-1 = 2 shares
            for byte in body:
                counts[byte] += 1
    total = n_splits * 2 * 16
    expected = total / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_DF255_P01, chi2


def test_max_width_scheme():
    rng = RandomSource(42)
    secret = rng.randbytes(16)
    params = SchemeParams(2, 255)
    shares = split(secret, params, rng)
    assert len(shares) == 255
    assert recover([shares[0], shares[254]], 2) == secret
