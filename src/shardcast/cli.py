"""Command-line front end.

Subcommands: split, recover, encode, decode, simulate, sweep, analyze,
encounters. Exit codes: 0 success, 1 domain error (one-line diagnostic
on stderr), 2 usage error. All byte values cross the CLI surface as hex;
shares travel as ``id:bodyhex`` lines. Every randomized subcommand is
deterministic under an explicit --seed; without one, a seed is drawn
from OS entropy and echoed to stderr for reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .beacon import DEFAULT_MFG_ID, DEFAULT_REF_RSSI, decode_frame, encode_frame
from .errors import ParseError, ShardcastError
from .exposure import (
    ExposureScheme,
    compute_scheme_exposure,
    encounter_statistics,
    read_sightings,
    write_encounter_report,
    write_exposure_report,
)
from .identity import Share, identifier_new, identifier_verify
from .rng import RandomSource
from .shamir import SchemeParams, recover, split
from .simulator import RECON_MODES, SimConfig, load_sim_configs, sweep, write_results


def _int_any_base(text: str) -> int:
    return int(text, 0)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = RandomSource().getrandbits(48)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# -- share plumbing ------------------------------------------------------


def _parse_share_line(text: str, lineno: int) -> tuple[int, bytes]:
    if ":" not in text:
        raise ParseError(lineno, f"expected id:bodyhex, got {text!r}")
    id_text, body_text = text.split(":", 1)
    try:
        share_id = int(id_text)
    except ValueError as exc:
        raise ParseError(lineno, f"bad share id {id_text!r}") from exc
    try:
        body = bytes.fromhex(body_text.strip())
    except ValueError as exc:
        raise ParseError(lineno, f"bad hex body {body_text!r}") from exc
    return share_id, body


def _read_share_lines(path: str | None) -> list[tuple[int, bytes]]:
    fh = sys.stdin if path in (None, "-") else open(path, encoding="utf-8")
    try:
        shares = []
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text:
                shares.append(_parse_share_line(text, lineno))
        return shares
    finally:
        if fh is not sys.stdin:
            fh.close()


# -- subcommands ---------------------------------------------------------


def cmd_split(args) -> int:
    try:
        params = SchemeParams(args.k, args.n)
    except ShardcastError as exc:
        args.parser.error(str(exc))
    if args.random:
        rng = RandomSource(_resolve_seed(args))
        secret = identifier_new(rng)
    else:
        try:
            secret = bytes.fromhex(args.secret_hex)
        except ValueError:
            args.parser.error(f"--secret-hex is not valid hex: {args.secret_hex!r}")
        if not secret:
            args.parser.error("--secret-hex must not be empty")
        rng = RandomSource(_resolve_seed(args))
    for share_id, body in split(secret, params, rng):
        print(f"{share_id}:{body.hex()}")
    return 0


def cmd_recover(args) -> int:
    shares = _read_share_lines(args.input)
    k = args.k if args.k is not None else len(shares)
    if len(shares) > k:
        shares = shares[:k]  # threshold semantics: any k suffice
    secret = recover(shares, k)
    if args.check and not identifier_verify(secret):
        print("error: recovered value fails checksum verification", file=sys.stderr)
        return 1
    print(secret.hex())
    return 0


def cmd_encode(args) -> int:
    body = bytes.fromhex(args.body_hex)
    share = Share(args.share_id, body)
    frame = encode_frame(
        share,
        mfg_id=args.mfg_id,
        ref_rssi=args.ref_rssi,
        mfg_reserved=args.reserved,
    )
    print(frame.hex())
    return 0


def cmd_decode(args) -> int:
    text = args.frame
    if text in (None, "-"):
        text = sys.stdin.read().strip()
    frame = decode_frame(bytes.fromhex(text))
    print(f"mfg_id: 0x{frame.mfg_id:04x}")
    print("beacon_code: 0xbeac")
    print(f"share_id: {frame.share.share_id}")
    print(f"body: {frame.share.body.hex()}")
    print(f"ref_rssi: {frame.ref_rssi}")
    print(f"reserved: {frame.mfg_reserved}")
    return 0


def _config_overrides(args, configs: list[SimConfig]) -> list[SimConfig]:
    out = []
    for cfg in configs:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
        out.append(cfg)
    return out


# The simulate flags that describe the scenario, by SimConfig field name; a
# flag left out takes SimConfig's default. A config file sets all of them.
_SCENARIO_FIELDS = ("m_devices", "scanners", "t_share", "adv_interval", "loss_rate", "scan_mode",
                    "horizon", "recon_mode")


def _flag(field: str) -> str:
    return "--nodes" if field == "m_devices" else "--" + field.replace("_", "-")


def _single_config(args) -> SimConfig:
    if args.k is None or args.n is None:
        args.parser.error("either --config or both --k and --n are required")
    try:
        params = SchemeParams(args.k, args.n)
    except ShardcastError as exc:
        args.parser.error(str(exc))
    given = {name: getattr(args, name) for name in (*_SCENARIO_FIELDS, "trials")
             if getattr(args, name) is not None}
    return SimConfig(params, seed=_resolve_seed(args), **given)


def cmd_simulate(args) -> int:
    """Serves both ``simulate`` and ``sweep``: run the configs, write the TSV."""
    if args.config:
        clash = [_flag(name) for name in ("k", "n", *_SCENARIO_FIELDS)
                 if getattr(args, name, None) is not None]
        if clash:
            args.parser.error(f"--config sets the scenario; drop {', '.join(clash)}")
        configs = _config_overrides(args, load_sim_configs(args.config))
    else:
        configs = [_single_config(args)]
    rows = sweep(configs)
    out, close = _open_out(args.out)
    try:
        write_results(rows, out)
    finally:
        if close:
            out.close()
    return 0


def _parse_gaps(text: str, parser) -> list[int]:
    try:
        gaps = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        parser.error(f"--gaps must be a comma list of integers, got {text!r}")
    if not gaps:
        parser.error("--gaps must not be empty")
    if min(gaps) < 0:
        parser.error(f"--gaps must not be negative, got {text!r}")
    return gaps


def cmd_analyze(args) -> int:
    gaps = _parse_gaps(args.gaps, args.parser) if args.gaps else None
    sightings = read_sightings(args.input)
    scheme = ExposureScheme(args.k, args.n, args.t)
    report = compute_scheme_exposure(sightings, scheme, align=args.align)
    out, close = _open_out(args.out)
    try:
        write_exposure_report([report], out)
        if gaps:
            out.write("\n")
            write_encounter_report(encounter_statistics(sightings, gaps), out)
    finally:
        if close:
            out.close()
    return 0


def cmd_encounters(args) -> int:
    gaps = _parse_gaps(args.gaps, args.parser)
    sightings = read_sightings(args.input)
    out, close = _open_out(args.out)
    try:
        write_encounter_report(encounter_statistics(sightings, gaps), out)
    finally:
        if close:
            out.close()
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardcast",
        description="Threshold-shared identity broadcast: split/recover, "
        "beacon codec, simulation, and trace analysis.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("split", help="split a secret into n shares")
    p.add_argument("--k", type=int, required=True, help="recovery threshold")
    p.add_argument("--n", type=int, required=True, help="share count")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--secret-hex", help="secret bytes as hex")
    group.add_argument(
        "--random", action="store_true", help="generate a fresh self-verifying identifier"
    )
    p.add_argument("--seed", type=int, help="deterministic randomness seed")
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("recover", help="recover a secret from id:bodyhex share lines")
    p.add_argument("--input", help="share file (default: stdin)")
    p.add_argument("--k", type=int, help="threshold (default: number of lines)")
    p.add_argument(
        "--check", action="store_true", help="require the result to pass checksum verification"
    )
    p.set_defaults(func=cmd_recover)

    p = subs.add_parser("encode", help="encode one share as a beacon frame")
    p.add_argument("--share-id", type=int, required=True)
    p.add_argument("--body-hex", required=True, help="16-byte share body as hex")
    p.add_argument("--mfg-id", type=_int_any_base, default=DEFAULT_MFG_ID)
    p.add_argument("--ref-rssi", type=int, default=DEFAULT_REF_RSSI)
    p.add_argument("--reserved", type=_int_any_base, default=0)
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("decode", help="decode a beacon frame")
    p.add_argument("frame", nargs="?", help="26-byte frame as hex (default: stdin)")
    p.set_defaults(func=cmd_decode)

    for name, needs_config in (("simulate", False), ("sweep", True)):
        p = subs.add_parser(
            name,
            help="run reconstruction simulations"
            + ("" if needs_config else " (single run or config file)"),
        )
        p.add_argument("--config", required=needs_config, help="key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--out", help="results file (default: stdout)")
        p.set_defaults(func=cmd_simulate)
        if not needs_config:
            p.add_argument("--k", type=int)
            p.add_argument("--n", type=int)
            p.add_argument("--nodes", type=int, dest="m_devices", help="device count")
            p.add_argument("--scanners", type=int)
            p.add_argument("--t-share", type=float)
            p.add_argument("--adv-interval", type=float)
            p.add_argument("--loss-rate", type=float)
            p.add_argument("--scan-mode")
            p.add_argument("--horizon", type=float)
            p.add_argument("--recon-mode", choices=RECON_MODES)

    p = subs.add_parser("analyze", help="exposure report for a sighting log")
    p.add_argument("--input", required=True, help="sighting log file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True, help="slot length, seconds")
    p.add_argument("--gaps", help="also report encounters for these max gaps (comma list)")
    p.add_argument(
        "--align",
        choices=("grid", "device"),
        default="grid",
        help="window anchor: shared grid (default) or each device's first sighting",
    )
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("encounters", help="encounter statistics for a sighting log")
    p.add_argument("--input", required=True, help="sighting log file")
    p.add_argument("--gaps", default="1,3,30,60", help="max gaps, comma list of seconds")
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_encounters)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    try:
        return args.func(args)
    except ShardcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
