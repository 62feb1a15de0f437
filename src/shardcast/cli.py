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
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from functools import partial

from .beacon import DEFAULT_MFG_ID, DEFAULT_REF_RSSI, decode_frame, encode_frame
from .errors import ParseError, ShardcastError, read_utf8
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
from .simulator import SETTINGS, SimConfig, bad_value, load_sim_configs, sweep, write_results


def _int_any_base(text: str) -> int:
    return int(text, 0)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = RandomSource().getrandbits(48)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


@contextmanager
def _output(path: str | None):
    """The stream --out names, opened before the work that fills it.

    None and "-" are stdout. A regular file is written as a new file beside
    it, which replaces it only when the block completes, so an unwritable
    path fails before any work and a failed run leaves an earlier result in
    place.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # A directory fails here; a device or a pipe is written in place.
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        out = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the path given, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with out:
            yield out
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


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


def _share_lines(lines: Iterable[str]) -> list[tuple[int, bytes]]:
    return [_parse_share_line(text, lineno)
            for lineno, raw in enumerate(lines, start=1) if (text := raw.strip())]


def _read_share_lines(path: str | None) -> list[tuple[int, bytes]]:
    return read_utf8(None if path == "-" else path, _share_lines)


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
    if args.k is not None and args.k < 1:
        args.parser.error(f"--k must be at least 1, got {args.k}")
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


def _run_configs(args, configs: list[SimConfig]) -> int:
    with _output(args.out) as out:
        write_results(sweep(configs), out)
    return 0


def cmd_simulate(args) -> int:
    """One configuration, given by flags; a flag left out takes SimConfig's default."""
    try:
        params = SchemeParams(args.k, args.n)
    except ShardcastError as exc:
        args.parser.error(str(exc))
    given = {f.name: value for f in fields(SimConfig)
             if (value := getattr(args, f.name, None)) is not None}
    given["seed"] = _resolve_seed(args)
    return _run_configs(args, [SimConfig(params, **given)])


def cmd_sweep(args) -> int:
    """Every configuration of a config file; --seed and --trials override it."""
    given = {name: value for name in ("seed", "trials")
             if (value := getattr(args, name)) is not None}
    return _run_configs(args, [replace(cfg, **given) for cfg in load_sim_configs(args.config)])


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
    scheme = ExposureScheme(args.k, args.n, args.t)
    with _output(args.out) as out:
        sightings = read_sightings(args.input)
        write_exposure_report([compute_scheme_exposure(sightings, scheme, align=args.align)], out)
        if gaps:
            out.write("\n")
            write_encounter_report(encounter_statistics(sightings, gaps), out)
    return 0


def cmd_encounters(args) -> int:
    gaps = _parse_gaps(args.gaps, args.parser)
    with _output(args.out) as out:
        write_encounter_report(encounter_statistics(read_sightings(args.input), gaps), out)
    return 0


# -- parser --------------------------------------------------------------


def _setting(key: str, text: str):
    """A simulate flag's value, read by its config key's converter. simulate
    takes one device count, where a config file's nodes is a list."""
    try:
        return (int if key == "nodes" else SETTINGS[key])(text)
    except ValueError:
        raise argparse.ArgumentTypeError(bad_value(key, text)) from None


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

    p = subs.add_parser("simulate", help="run one simulated configuration given by flags")
    for key in SETTINGS:  # one flag per config key; --k and --n give the scheme
        if key != "scheme":
            p.add_argument("--" + key.replace("_", "-"), type=partial(_setting, key),
                           required=key in ("k", "n"), dest="m_devices" if key == "nodes" else key)
    p.add_argument("--out", help="results file (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="run every configuration of a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--out", help="results file (default: stdout)")
    p.set_defaults(func=cmd_sweep)

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
    except BrokenPipeError:  # an OSError: caught first, and silent
        return 1
    except (ShardcastError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
