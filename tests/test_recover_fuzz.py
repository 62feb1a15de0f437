"""Seeded fuzz of share recovery: mutated id:bodyhex lines into
`shamir.recover` and into the recover subcommand. Every call returns or
raises a ShardcastError; the subcommand exits 0, 1 or 2 with no traceback."""

import io
import random

import pytest

from shardcast.cli import _parse_share_line, main
from shardcast.errors import ShardcastError
from shardcast.identity import identifier_new, identifier_verify
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams, recover, split

BAD_IDS = ("0", "256", "-1", "1.5", "x", "", "0x3", "1e2", "9" * 5000)


def mutate_line(line, rng):
    """One id:bodyhex line with one defect, or the line unchanged."""
    share_id, _, body = line.partition(":")
    kind = rng.randrange(8)
    if kind == 0:  # bad hex: a non-hex digit, or an odd digit count
        at = rng.randrange(len(body) + 1)
        body = body[:at] + rng.choice("gz-") + body[at + 1:] if rng.random() < 0.5 else body[1:]
    elif kind == 1:
        share_id = rng.choice(BAD_IDS)
    elif kind == 2:  # unequal width
        body = body[:-2 * rng.randrange(1, 4)] if rng.random() < 0.5 else body + "ab"
    elif kind == 3:
        body = ""
    elif kind == 4:
        return share_id + body  # no colon
    elif kind == 5:
        return line.replace(":", rng.choice((" ", "::", ";")), 1)
    return f"{share_id}:{body}"


def mutated_inputs(seed, count):
    """(lines, k) pairs: the lines of one real split, cut, duplicated,
    reordered and mutated; k is None, 0, or a threshold near the line count."""
    rng = random.Random(seed)
    source = RandomSource(seed)
    for _ in range(count):
        k = rng.randrange(2, 6)
        params = SchemeParams(k, k + rng.randrange(3))
        lines = [f"{sid}:{body.hex()}" for sid, body in split(identifier_new(source), params, source)]
        rng.shuffle(lines)
        lines = lines[:rng.randrange(1, len(lines) + 1)]
        if rng.random() < 0.3:  # a duplicate id, with the same or another body
            sid = lines[0].split(":")[0]
            lines.append(f"{sid}:{rng.randbytes(16).hex()}" if rng.random() < 0.5 else lines[0])
            rng.shuffle(lines)
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(lines))
            lines[at] = mutate_line(lines[at], rng)
        yield lines, rng.choice((None, k, len(lines), k + 1, 0))


def expected_recovery(lines, k):
    """What the recover subcommand should print, or the error it should
    report: parse every line, keep the first k shares, interpolate."""
    shares = [_parse_share_line(line.strip(), n) for n, line in enumerate(lines, 1) if line.strip()]
    k = len(shares) if k is None else k
    return recover(shares[:k], k)


@pytest.mark.parametrize("share_id", [0, 256, -1, 1.5, "3", None, 1 << 70])
def test_recover_rejects_bad_share_ids(share_id):
    body = bytes(16)
    with pytest.raises(ShardcastError):
        recover([(1, body), (share_id, body)], 2)


@pytest.mark.parametrize("seed", [1, 2])
def test_recover_on_mutated_lines(seed, monkeypatch, capsys):
    # The same lines through shamir.recover (which must return or raise a
    # ShardcastError) and through the subcommand, which must agree with it.
    rng = random.Random(-seed)  # a stream apart from mutated_inputs'
    codes = {0: 0, 1: 0, 2: 0}
    for lines, k in mutated_inputs(seed, 400):
        check = rng.random() < 0.3
        argv = ["recover"] + ([] if k is None else ["--k", str(k)]) + (["--check"] if check else [])
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in codes and "Traceback" not in captured.err
        codes[code] += 1
        if k == 0:  # a usage error, before any input is read
            assert code == 2 and "--k" in captured.err
            continue
        try:
            value = expected_recovery(lines, k)
        except ShardcastError:
            value = None
        if value is None or (check and not (len(value) == 16 and identifier_verify(value))):
            assert code == 1, (lines, k, captured)
            assert captured.out == "" and captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
        else:
            assert code == 0, (lines, k, captured)
            assert captured.out == value.hex() + "\n"
    assert min(codes.values()) > 40, codes


def test_recover_subcommand_on_undecodable_input(tmp_path, capsys):
    path = tmp_path / "shares.txt"
    path.write_bytes(b"1:" + bytes(range(128, 160)) + b"\n")
    assert main(["recover", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
