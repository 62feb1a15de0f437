"""Threshold-shared identity broadcast.

A 16-byte self-verifying device identifier is split into n shares with a
byte-wise (k, n) threshold scheme over GF(2^8); shares rotate on air one
per time slot inside AltBeacon-compatible advertisement frames, so only
an observer present for at least k distinct slots can put the identity
back together. The package bundles the field/share primitives, the frame
codec, the broadcast scheduler, the scanner-side reconstruction search,
a deterministic loss/duty-cycle simulator, and trace exposure analysis.
"""

from .beacon import (
    BEACON_CODE,
    DEFAULT_MFG_ID,
    DEFAULT_REF_RSSI,
    FRAME_LEN,
    BeaconFrame,
    decode_frame,
    encode_frame,
)
from .broadcaster import (
    ADV_MAX_S,
    ADV_MIN_S,
    TICK_S,
    BeaconEmission,
    BroadcastConfig,
    Broadcaster,
)
from .errors import (
    BadBeaconCode,
    BadLength,
    BadShareId,
    DuplicateShareId,
    EmptyConfigList,
    EmptyFile,
    InvalidParams,
    InvalidScheme,
    LengthMismatch,
    ParseError,
    ShardcastError,
    WrongShareCount,
    ZeroInverse,
)
from .exposure import (
    Encounter,
    ExposureReport,
    ExposureScheme,
    Sighting,
    compute_raw_exposure,
    compute_scheme_exposure,
    encounter_statistics,
    extract_encounters,
    read_sightings,
)
from .identity import (
    CHECKSUM_LEN,
    IDENTIFIER_LEN,
    RANDOM_LEN,
    Share,
    ShareSet,
    default_expiry,
    identifier_new,
    identifier_verify,
    shareset_expired,
    shareset_generate,
)
from .reconstructor import (
    ReceivedShare,
    ReconstructionReport,
    Reconstructor,
    RecoveredIdentity,
    complementary_id_sets,
    default_max_tries,
    estimate_search_space,
    expected_tries,
)
from .rng import RandomSource
from .shamir import SchemeParams, recover, split
from .simulator import (
    SimConfig,
    SimResult,
    SweepRow,
    load_sim_configs,
    run_simulation,
    run_trials,
    sweep,
    write_results,
)

__version__ = "0.1.0"

__all__ = [
    "ADV_MAX_S",
    "ADV_MIN_S",
    "BEACON_CODE",
    "BadBeaconCode",
    "BadLength",
    "BadShareId",
    "BeaconEmission",
    "BeaconFrame",
    "BroadcastConfig",
    "Broadcaster",
    "CHECKSUM_LEN",
    "DEFAULT_MFG_ID",
    "DEFAULT_REF_RSSI",
    "DuplicateShareId",
    "EmptyConfigList",
    "EmptyFile",
    "Encounter",
    "ExposureReport",
    "ExposureScheme",
    "FRAME_LEN",
    "IDENTIFIER_LEN",
    "InvalidParams",
    "InvalidScheme",
    "LengthMismatch",
    "ParseError",
    "RANDOM_LEN",
    "RandomSource",
    "ReceivedShare",
    "ReconstructionReport",
    "Reconstructor",
    "RecoveredIdentity",
    "SchemeParams",
    "Share",
    "ShareSet",
    "ShardcastError",
    "Sighting",
    "SimConfig",
    "SimResult",
    "SweepRow",
    "TICK_S",
    "WrongShareCount",
    "ZeroInverse",
    "complementary_id_sets",
    "compute_raw_exposure",
    "compute_scheme_exposure",
    "default_expiry",
    "default_max_tries",
    "encounter_statistics",
    "encode_frame",
    "decode_frame",
    "estimate_search_space",
    "expected_tries",
    "extract_encounters",
    "identifier_new",
    "identifier_verify",
    "load_sim_configs",
    "read_sightings",
    "recover",
    "run_simulation",
    "run_trials",
    "shareset_expired",
    "shareset_generate",
    "split",
    "sweep",
    "write_results",
]
