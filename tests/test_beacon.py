"""Advertisement frame codec against hand-assembled golden frames."""

import pathlib

import pytest

from shardcast.beacon import (
    BEACON_CODE,
    DEFAULT_MFG_ID,
    DEFAULT_REF_RSSI,
    FRAME_LEN,
    decode_frame,
    encode_frame,
)
from shardcast.errors import BadBeaconCode, BadLength, BadShareId, InvalidConfig
from shardcast.identity import Share

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "beacon_frames.txt"


def golden_frames():
    rows = []
    for line in FIXTURES.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        mfg, sid, body, rssi, reserved, frame = line.split("|")
        rows.append((int(mfg, 16), int(sid), bytes.fromhex(body), int(rssi), int(reserved), frame))
    assert rows, "fixture file is empty"
    return rows


def test_encode_matches_golden_frames():
    for mfg, sid, body, rssi, reserved, frame_hex in golden_frames():
        frame = encode_frame(Share(sid, body), mfg_id=mfg, ref_rssi=rssi, mfg_reserved=reserved)
        assert frame.hex() == frame_hex
        assert len(frame) == FRAME_LEN


def test_decode_matches_golden_fields():
    for mfg, sid, body, rssi, reserved, frame_hex in golden_frames():
        frame = decode_frame(bytes.fromhex(frame_hex))
        assert frame.mfg_id == mfg
        assert frame.share.share_id == sid
        assert frame.share.body == body
        assert frame.ref_rssi == rssi
        assert frame.mfg_reserved == reserved


def test_layout_fields_in_place():
    frame = encode_frame(Share(9, bytes(range(16))))
    # Company id is little-endian in the first two bytes.
    assert frame[0:2] == DEFAULT_MFG_ID.to_bytes(2, "little")
    # Beacon type code is big-endian 0xBEAC.
    assert frame[2:4] == BEACON_CODE.to_bytes(2, "big")
    # Share id occupies byte 0 of the 20-byte beacon id region.
    assert frame[4] == 9
    assert frame[5:21] == bytes(range(16))
    # The final three beacon-id bytes are zero padding.
    assert frame[21:24] == b"\x00\x00\x00"
    assert frame[24] == DEFAULT_REF_RSSI & 0xFF
    assert frame[25] == 0


def test_round_trip_random_fields():
    from shardcast.rng import RandomSource

    rng = RandomSource(8)
    for _ in range(200):
        share = Share(1 + rng.randrange(255), rng.randbytes(16))
        rssi = rng.randrange(256) - 128
        frame = decode_frame(
            encode_frame(share, mfg_id=rng.randrange(0x10000), ref_rssi=rssi,
                         mfg_reserved=rng.randrange(256))
        )
        assert frame.share == share
        assert frame.ref_rssi == rssi


def test_signed_rssi_edges():
    for rssi in (-128, -100, -59, -1, 0, 1, 127):
        frame = encode_frame(Share(1, bytes(16)), ref_rssi=rssi)
        assert decode_frame(frame).ref_rssi == rssi
    with pytest.raises(ValueError):
        encode_frame(Share(1, bytes(16)), ref_rssi=-129)
    with pytest.raises(ValueError):
        encode_frame(Share(1, bytes(16)), ref_rssi=128)


def test_ref_rssi_range_error_is_typed():
    with pytest.raises(InvalidConfig) as info:
        encode_frame(Share(1, bytes(16)), ref_rssi=1000)
    assert info.value.fields == ("ref_rssi",)


def test_share_id_zero_rejected_both_ways():
    with pytest.raises(BadShareId):
        encode_frame(Share(0, bytes(16)))
    frame = bytearray(encode_frame(Share(1, bytes(16))))
    frame[4] = 0
    with pytest.raises(BadShareId):
        decode_frame(bytes(frame))


def test_wrong_length_rejected():
    frame = encode_frame(Share(1, bytes(16)))
    with pytest.raises(BadLength):
        decode_frame(frame[:-1])
    with pytest.raises(BadLength):
        decode_frame(frame + b"\x00")
    with pytest.raises(BadLength):
        decode_frame(b"")


def test_beacon_code_mutations_rejected():
    frame = bytearray(encode_frame(Share(3, bytes(16))))
    for wrong in (0x0000, 0xBEAD, 0xACBE, 0xFFFF, 0x0215):
        mutated = bytearray(frame)
        mutated[2:4] = wrong.to_bytes(2, "big")
        with pytest.raises(BadBeaconCode):
            decode_frame(bytes(mutated))
