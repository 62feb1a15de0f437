"""Threshold-shared identity broadcast.

A 16-byte self-verifying device identifier is split into n shares with a
byte-wise (k, n) threshold scheme over GF(2^8); shares rotate on air one
per time slot inside AltBeacon-compatible advertisement frames, so only
an observer present for at least k distinct slots can put the identity
back together. The package bundles the field/share primitives, the frame
codec, the broadcast scheduler, the scanner-side reconstruction search,
a deterministic loss/duty-cycle simulator, and trace exposure analysis.

The top level re-exports the quick-start names and the error types;
everything else is imported from its own module.
"""

from .beacon import decode_frame, encode_frame
from .broadcaster import BroadcastConfig, Broadcaster
from .errors import (
    BadBeaconCode,
    BadLength,
    BadShareId,
    DuplicateShareId,
    EmptyConfigList,
    EmptyFile,
    InvalidConfig,
    InvalidParams,
    InvalidScheme,
    LengthMismatch,
    ParseError,
    ShardcastError,
    WrongShareCount,
    ZeroInverse,
)
from .identity import identifier_new, identifier_verify
from .reconstructor import ReceivedShare, Reconstructor
from .rng import RandomSource
from .shamir import SchemeParams, recover, split
from .simulator import SimConfig, run_trials

__version__ = "0.1.0"

__all__ = [
    "BadBeaconCode",
    "BadLength",
    "BadShareId",
    "BroadcastConfig",
    "Broadcaster",
    "DuplicateShareId",
    "EmptyConfigList",
    "EmptyFile",
    "InvalidConfig",
    "InvalidParams",
    "InvalidScheme",
    "LengthMismatch",
    "ParseError",
    "RandomSource",
    "ReceivedShare",
    "Reconstructor",
    "SchemeParams",
    "ShardcastError",
    "SimConfig",
    "WrongShareCount",
    "ZeroInverse",
    "decode_frame",
    "encode_frame",
    "identifier_new",
    "identifier_verify",
    "recover",
    "run_trials",
    "split",
]
