"""AltBeacon manufacturer-data codec for share broadcast.

One share travels per advertisement inside the 26-byte manufacturer data
block, laid out by the one struct format ``<H2sB16s3xbB``:

    bytes   field                format
    0..1    company id           H, little-endian (Bluetooth convention)
    2..3    beacon code 0xBEAC   2s, big-endian
    4       share id             B, byte 0 of the 20-byte beacon id
    5..20   share body           16s, beacon id bytes 1..16
    21..23  zero padding         3x, beacon id bytes 17..19
    24      reference RSSI       b, signed
    25      reserved             B
"""

from __future__ import annotations

import struct
from functools import partial
from typing import NamedTuple

from .errors import BadBeaconCode, BadLength, BadShareId, InvalidConfig
from .identity import Share

_FRAME = struct.Struct("<H2sB16s3xbB")
_pack = _FRAME.pack
_unpack = _FRAME.unpack

BEACON_CODE = 0xBEAC
FRAME_LEN = _FRAME.size  # 26
DEFAULT_MFG_ID = 0x0118
DEFAULT_REF_RSSI = -59
_CODE = BEACON_CODE.to_bytes(2, "big")


class BeaconFrame(NamedTuple):
    mfg_id: int
    share: Share
    ref_rssi: int = DEFAULT_REF_RSSI
    mfg_reserved: int = 0


# Build a BeaconFrame from a tuple of its fields in C; the NamedTuple's own
# __new__ is a Python function, and a scanner decodes every frame it hears.
_new_frame = partial(tuple.__new__, BeaconFrame)


def encode_frame(
    share: Share,
    mfg_id: int = DEFAULT_MFG_ID,
    ref_rssi: int = DEFAULT_REF_RSSI,
    mfg_reserved: int = 0,
) -> bytes:
    """Serialize one share into the 26-byte manufacturer data block.

    Raises BadShareId on a share id that is not an int in 1..255, and
    InvalidConfig when mfg_id, ref_rssi or mfg_reserved is not an int that
    fits its field.
    """
    try:
        if not 1 <= share.share_id <= 255:
            raise BadShareId(f"share id {share.share_id} outside 1..255")
        if not -128 <= ref_rssi <= 127:
            raise InvalidConfig(f"ref_rssi {ref_rssi} outside a signed byte", "ref_rssi")
        if not 0 <= mfg_id <= 0xFFFF:
            raise InvalidConfig(f"mfg_id {mfg_id} outside 0..0xffff", "mfg_id")
        if not 0 <= mfg_reserved <= 0xFF:
            raise InvalidConfig(f"mfg_reserved {mfg_reserved} outside 0..255", "mfg_reserved")
        return _pack(mfg_id, _CODE, share.share_id, share.body, ref_rssi, mfg_reserved)
    except (TypeError, struct.error):
        # A value that is not an int: it cannot be compared, or struct
        # refuses it. Named here, so a good frame pays for no type test.
        if not isinstance(share.share_id, int):
            raise BadShareId(f"share id {share.share_id!r} is not an integer") from None
        for name, value in (("ref_rssi", ref_rssi), ("mfg_id", mfg_id),
                            ("mfg_reserved", mfg_reserved)):
            if not isinstance(value, int):
                raise InvalidConfig(f"{name} {value!r} is not an integer", name) from None
        raise


def decode_frame(frame: bytes) -> BeaconFrame:
    """Parse a manufacturer data block back into its share.

    Accepts any bytes-like frame; the decoded body is always ``bytes``.
    Raises BadLength unless the frame is exactly 26 bytes, BadBeaconCode
    when the type code is not 0xBEAC, and BadShareId on a zero share id.
    """
    if len(frame) != FRAME_LEN:
        raise BadLength(f"frame must be {FRAME_LEN} bytes, got {len(frame)}")
    mfg_id, code, share_id, body, ref_rssi, reserved = _unpack(frame)
    if code != _CODE:
        raise BadBeaconCode(
            f"beacon code {int.from_bytes(code, 'big'):#06x} is not {BEACON_CODE:#06x}")
    if share_id == 0:
        raise BadShareId("share id 0 is reserved")
    return _new_frame((mfg_id, Share(share_id, body), ref_rssi, reserved))
