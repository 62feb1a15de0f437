"""Seeded fuzz of the frame codec against the byte-by-byte reference in
oracles.py: mutated frames in, out-of-range header fields in, and the
decode subcommand on the same frames."""

import random

import pytest

from oracles import altbeacon_frame_ref, altbeacon_parse_ref
from shardcast.beacon import BeaconFrame, decode_frame, encode_frame
from shardcast.cli import main
from shardcast.errors import ShardcastError
from shardcast.identity import Share

BUFFER_TYPES = (bytes, bytearray, lambda data: memoryview(bytes(data)))


def random_fields(rng):
    return (rng.randrange(0x10000), 1 + rng.randrange(255), rng.randbytes(16),
            rng.randrange(-128, 128), rng.randrange(256))


def mutated_frames(seed, count):
    """Frames of random length, and valid frames with a flipped beacon code
    or share id, each as bytes, bytearray or memoryview."""
    rng = random.Random(seed)
    frames = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            data = bytearray(rng.randbytes(rng.randrange(41)))
        else:
            data = bytearray(altbeacon_frame_ref(*random_fields(rng)))
            if kind == 1:
                data[2 + rng.randrange(2)] ^= 1 + rng.randrange(255)
            elif kind == 2:
                data[4] = rng.choice((0, rng.randrange(256)))
        frames.append(BUFFER_TYPES[rng.randrange(3)](data))
    return frames


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decode_mutated_frames_match_reference(seed):
    for frame in mutated_frames(seed, 1500):
        expected = altbeacon_parse_ref(frame)
        try:
            decoded = decode_frame(frame)
        except ShardcastError as exc:
            assert type(exc).__name__ == expected, (bytes(frame).hex(), exc)
            continue
        assert type(decoded) is BeaconFrame
        assert type(decoded.share.body) is bytes
        share = decoded.share
        fields = (decoded.mfg_id, share.share_id, share.body, decoded.ref_rssi,
                  decoded.mfg_reserved)
        assert fields == expected, bytes(frame).hex()


HEADER_VALUES = {
    "share_id": (-1, 0, 1, 2, 254, 255, 256, 1 << 40),
    "mfg_id": (-(1 << 40), -1, 0, 1, 0xFFFF, 0x10000, 1 << 64),
    "ref_rssi": (-(1 << 40), -129, -128, -1, 0, 127, 128, 1 << 64),
    "mfg_reserved": (-1, 0, 1, 255, 256, 1 << 64),
}
IN_RANGE = {"share_id": range(1, 256), "mfg_id": range(0x10000), "ref_rssi": range(-128, 128),
            "mfg_reserved": range(256)}


def test_encode_header_fields_in_and_out_of_range():
    rng = random.Random(4)
    for _ in range(3000):
        fields = {name: rng.choice(values) for name, values in HEADER_VALUES.items()}
        body = rng.randbytes(16)
        share_id = fields.pop("share_id")
        in_range = share_id in IN_RANGE["share_id"] and all(
            value in IN_RANGE[name] for name, value in fields.items())
        try:
            frame = encode_frame(Share(share_id, body), **fields)
        except ShardcastError:
            assert not in_range, fields
            continue
        assert in_range, fields
        assert frame == altbeacon_frame_ref(fields["mfg_id"], share_id, body,
                                            fields["ref_rssi"], fields["mfg_reserved"])


def test_round_trips_against_reference_assembler():
    rng = random.Random(5)
    for _ in range(2000):
        mfg_id, share_id, body, rssi, reserved = fields = random_fields(rng)
        frame = encode_frame(Share(share_id, body), mfg_id=mfg_id, ref_rssi=rssi,
                             mfg_reserved=reserved)
        assert frame == altbeacon_frame_ref(*fields)
        decoded = decode_frame(frame)
        assert (decoded.mfg_id, decoded.share, decoded.ref_rssi, decoded.mfg_reserved) == (
            mfg_id, Share(share_id, body), rssi, reserved)
        assert altbeacon_parse_ref(frame) == fields


def test_decode_subcommand_on_mutated_frames(capsys):
    for frame in mutated_frames(6, 400):
        expected = altbeacon_parse_ref(frame)
        try:
            code = main(["decode", bytes(frame).hex()])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if isinstance(expected, str):
            assert code == 1 and captured.err.startswith("error: "), captured.err
        else:
            assert code == 0
            assert f"share_id: {expected[1]}\nbody: {expected[2].hex()}\n" in captured.out
