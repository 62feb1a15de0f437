"""AltBeacon manufacturer-data codec for share broadcast.

One share travels per advertisement inside the 26-byte manufacturer data
block: company id (2 bytes, little-endian per the Bluetooth assigned-number
convention), beacon type code 0xBEAC (big-endian), a 20-byte beacon id, a
signed reference-RSSI byte, and one reserved byte. The beacon id packs the
share id in byte 0, the 16 body bytes in 1..16, and zero padding in 17..19.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadBeaconCode, BadLength, BadShareId, InvalidConfig
from .identity import IDENTIFIER_LEN, Share

BEACON_CODE = 0xBEAC
FRAME_LEN = 26
BEACON_ID_LEN = 20
DEFAULT_MFG_ID = 0x0118
DEFAULT_REF_RSSI = -59
_PAD = BEACON_ID_LEN - 1 - IDENTIFIER_LEN


class BeaconFrame(NamedTuple):
    mfg_id: int
    share: Share
    ref_rssi: int = DEFAULT_REF_RSSI
    mfg_reserved: int = 0


def encode_frame(
    share: Share,
    mfg_id: int = DEFAULT_MFG_ID,
    ref_rssi: int = DEFAULT_REF_RSSI,
    mfg_reserved: int = 0,
) -> bytes:
    """Serialize one share into the 26-byte manufacturer data block.

    Raises BadShareId on a share id outside 1..255, and InvalidConfig when
    mfg_id, ref_rssi or mfg_reserved does not fit its field.
    """
    if not 1 <= share.share_id <= 255:
        raise BadShareId(f"share id {share.share_id} outside 1..255")
    if not -128 <= ref_rssi <= 127:
        raise InvalidConfig(f"ref_rssi {ref_rssi} outside a signed byte", "ref_rssi")
    if not 0 <= mfg_id <= 0xFFFF:
        raise InvalidConfig(f"mfg_id {mfg_id} outside 0..0xffff", "mfg_id")
    if not 0 <= mfg_reserved <= 0xFF:
        raise InvalidConfig(f"mfg_reserved {mfg_reserved} outside 0..255", "mfg_reserved")
    return b"".join(
        (
            mfg_id.to_bytes(2, "little"),
            BEACON_CODE.to_bytes(2, "big"),
            bytes([share.share_id]),
            share.body,
            bytes(_PAD),
            (ref_rssi & 0xFF).to_bytes(1, "big"),
            bytes([mfg_reserved]),
        )
    )


def decode_frame(frame: bytes) -> BeaconFrame:
    """Parse a manufacturer data block back into its share.

    Raises BadLength unless the frame is exactly 26 bytes, BadBeaconCode
    when the type code is not 0xBEAC, and BadShareId on a zero share id.
    """
    if len(frame) != FRAME_LEN:
        raise BadLength(f"frame must be {FRAME_LEN} bytes, got {len(frame)}")
    code = int.from_bytes(frame[2:4], "big")
    if code != BEACON_CODE:
        raise BadBeaconCode(f"beacon code {code:#06x} is not {BEACON_CODE:#06x}")
    share_id = frame[4]
    if share_id == 0:
        raise BadShareId("share id 0 is reserved")
    body = frame[5 : 5 + IDENTIFIER_LEN]
    mfg_id = int.from_bytes(frame[0:2], "little")
    ref_rssi = int.from_bytes(frame[24:25], "big", signed=True)
    return BeaconFrame(mfg_id, Share(share_id, body), ref_rssi, frame[25])
