"""Field arithmetic against the independent references."""

import pytest

from shardcast import gf256, kernel
from shardcast.errors import ZeroInverse

from oracles import gf_inv_ref, gf_mul_ref


def test_known_product_and_inverse():
    # Classic check pair for this reduction polynomial.
    assert gf256.gf_mul(0x53, 0xCA) == 0x01
    assert gf256.gf_inv(0xCA) == 0x53
    assert gf256.gf_inv(0x53) == 0xCA


def test_frozen_products():
    # Values computed once with the long-division reference and pinned.
    assert gf_mul_ref(0x57, 0x83) == 0xC1
    assert gf256.gf_mul(0x57, 0x83) == 0xC1
    assert gf_mul_ref(0x02, 0x80) == 0x1B
    assert gf256.gf_mul(0x02, 0x80) == 0x1B
    assert gf256.gf_mul(0xFF, 0xFF) == gf_mul_ref(0xFF, 0xFF)


def test_identity_and_zero():
    for a in range(256):
        assert gf256.gf_mul(a, 1) == a
        assert gf256.gf_mul(1, a) == a
        assert gf256.gf_mul(a, 0) == 0
        assert gf256.gf_mul(0, a) == 0


def test_sampled_products_match_reference():
    for a in range(0, 256, 7):
        for b in range(0, 256, 5):
            assert gf256.gf_mul(a, b) == gf_mul_ref(a, b)


def test_clmul_matches_table_path():
    for a in range(0, 256, 3):
        for b in range(0, 256, 11):
            assert gf256.clmul(a, b) == gf256.gf_mul(a, b)


def test_commutativity_and_distributivity_sampled():
    cases = [(3, 199), (0x53, 0xCA), (77, 77), (255, 254), (16, 32)]
    for a, b in cases:
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)
        for c in (1, 91, 255):
            left = gf256.gf_mul(a, b ^ c)
            right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
            assert left == right


def test_all_inverses():
    for a in range(1, 256):
        inv = gf256.gf_inv(a)
        assert inv == gf_inv_ref(a)
        assert gf256.gf_mul(a, inv) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        gf256.gf_inv(0)


def test_kernels_multiply_with_the_checked_table():
    # The acceptance field check (all 65,536 products) reads gf_mul, so it
    # covers split, recover and the search only while all share one table.
    assert kernel.MUL is gf256.MUL


def test_generator_order_and_table_shape():
    assert len(gf256.EXP) == 510
    assert len(gf256.LOG) == 256
    # The log table is a bijection from nonzero elements onto 0..254.
    assert sorted(gf256.LOG[1:]) == list(range(255))
    assert gf256.EXP[0] == 1
    assert gf256.EXP[255] == gf256.EXP[0]
