"""Seeded fuzz of configuration validation: mutated lines of the bundled
table config through `load_sim_configs`, and random scan modes through
`scan_window_params` and `SimConfig`. Every call returns or raises a
ShardcastError, and a byte that is not UTF-8 is a ParseError at its line
unless an earlier line fails first.
Nothing is simulated: a fuzzed config can be a 72-row sweep."""

import math
import random
from pathlib import Path

import pytest

from shardcast.broadcaster import TICK_S, to_ticks
from shardcast.errors import ParseError, ShardcastError
from shardcast.shamir import SchemeParams
from shardcast.simulator import SimConfig, load_sim_configs, scan_window_params

TABLE_CFG = Path(__file__).resolve().parent.parent / "configs" / "table_repro.cfg"

# Values that sit at or past some rule: signs, zero, non-finite and huge
# numbers, seconds whose tick count overflows, and text where a number goes.
VALUES = ("", "0", "-1", "1", "0.5", "1.0003", "0.02", "10.24", "1e308", "-1e308", "1e305",
          "1e-320", "inf", "-inf", "nan", "9" * 5000, "1_0", "0x10", "2:5", "6:5", "3:x",
          "1,2,x", "true", "maybe", "auto", "off", "balanced", "custom:1e308:1e308",
          "custom:1:1e308", "custom:0.0001:1", "custom:2:1")
KEYS = ("scheme", "nodes", "k", "n", "scanners", "t_share", "adv_interval", "loss_rate",
        "scan_mode", "horizon", "seed", "trials", "recon_mode", "max_tries", "group_by_mac",
        "eviction", "widgets")
# A byte no UTF-8 text holds, a stray continuation byte, a lead byte cut
# short, and an encoded surrogate.
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")
NUMBERS = ("0", "1", "2.5", "-1", "1e308", "1e305", "1e300", "1e-320", "0.0001", "0.000625",
           "inf", "nan", "", " 3 ", "1_0", "x")


def mutate_line(line, rng):
    """One config line with one defect, or another line."""
    key, eq, value = line.partition("=")
    kind = rng.randrange(8)
    if kind == 0:
        value = " " + rng.choice(VALUES)
    elif kind == 1:  # the value under another key
        key = rng.choice(KEYS) + " "
    elif kind == 2:
        return key + value  # no '='
    elif kind == 3:
        return line[:rng.randrange(len(line) + 1)]
    elif kind == 4:
        at = rng.randrange(len(line) + 1)
        return line[:at] + rng.choice("=#:,.- e\té") + line[at:]
    elif kind == 5:  # a longer list
        value += "," + rng.choice(VALUES)
    elif kind == 6:
        return ""
    elif kind == 7:  # a line of its own
        return f"{rng.choice(KEYS)} = {rng.choice(VALUES)}"
    return key + eq + value


def mutated_configs(seed, count):
    """The table config's lines with one to three settings mutated, and
    sometimes one line duplicated."""
    rng = random.Random(seed)
    lines = TABLE_CFG.read_text(encoding="utf-8").splitlines()
    settings = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    for _ in range(count):
        out = list(lines)
        for _ in range(rng.randrange(1, 4)):
            at = rng.choice(settings)
            out[at] = mutate_line(out[at], rng)
        if rng.random() < 0.2:
            out.insert(rng.randrange(len(out) + 1), rng.choice(out))
        yield "\n".join(out) + "\n"


def read_pairs(text):
    for item in text.split(","):
        k_text, n_text = item.split(":")
        int(k_text), int(n_text)


# How each known key reads its text; a reader raises ValueError or KeyError.
READERS = {
    **dict.fromkeys(("k", "n", "scanners", "seed", "trials", "max_tries"), int),
    **dict.fromkeys(("t_share", "adv_interval", "loss_rate", "horizon"), float),
    **dict.fromkeys(("scan_mode", "recon_mode"), str),
    "scheme": read_pairs,
    "nodes": lambda text: [int(x) for x in text.split(",")],
    "group_by_mac": lambda text: dict.fromkeys(("true", "1", "yes", "false", "0", "no"))[
        text.lower()],
    "eviction": lambda text: text in ("auto", "off") or float(text),
}


def fails_on_its_own(line):
    """True for a config line that is an error whatever the other lines
    hold: a setting without '=', an unknown key, or a value its key cannot
    read. A value that reads but breaks a SimConfig rule is not one."""
    setting = line.split("#", 1)[0].strip()
    if not setting:
        return False
    key, eq, value = setting.partition("=")
    if not eq:
        return True
    try:
        READERS[key.strip().lower()](value.strip())
    except (KeyError, ValueError):
        return True
    return False


def random_scan_mode(rng):
    kind = rng.randrange(4)
    if kind == 0:  # custom:W:I, with numbers near every rule
        return "custom:" + ":".join(rng.choice(NUMBERS) for _ in range(rng.choice((1, 2, 2, 3))))
    if kind == 1:  # a named mode, mangled
        mode = rng.choice(("continuous", "balanced", "low_power", "custom:1:1"))
        at = rng.randrange(len(mode) + 1)
        return mode[:at] + rng.choice(("", ":", " ", "X", ":1e308")) + mode[at + 1:]
    if kind == 2:  # a window and interval of random magnitude
        window = 10.0 ** rng.uniform(-6, 308)
        interval = window * rng.choice((1.0, 1.5, 10.0 ** rng.uniform(0, 20)))
        return f"custom:{window!r}:{interval!r}"
    return "".join(rng.choice("custom:0123456789.e+-infa ") for _ in range(rng.randrange(20)))


@pytest.mark.parametrize("seed", [1, 2])
def test_load_mutated_table_configs(seed, tmp_path):
    path = tmp_path / "mutated.cfg"
    outcomes = {"loaded": 0, "rejected": 0}
    for text in mutated_configs(seed, 800):
        path.write_text(text, encoding="utf-8")
        try:
            configs = load_sim_configs(str(path))
        except ShardcastError:
            outcomes["rejected"] += 1
            continue
        assert configs and all(type(c) is SimConfig for c in configs), text
        for config in configs:  # every horizon the simulator would round to ticks
            to_ticks(config.effective_horizon)
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("seed", [1, 2])
def test_configs_that_are_not_utf8_fail_at_the_line(seed, tmp_path):
    path = tmp_path / "mutated.cfg"
    rng = random.Random(seed)
    for text in mutated_configs(seed, 300):
        lines = text.encode("utf-8").split(b"\n")[:-1]
        at = rng.randrange(len(lines))
        cut = rng.randrange(len(lines[at]) + 1)
        lines[at] = lines[at][:cut] + rng.choice(NOT_UTF8) + lines[at][cut:]
        path.write_bytes(b"\n".join(lines) + rng.choice((b"\n", b"")))
        with pytest.raises(ParseError) as info:
            load_sim_configs(str(path))
        # The first bad line wins: an earlier line that fails on its own is one.
        first = next((i for i, line in enumerate(lines[:at]) if fails_on_its_own(line.decode())),
                     at)
        assert info.value.line == first + 1, lines[first]


@pytest.mark.parametrize("seed", [1, 2])
def test_random_scan_modes(seed):
    rng = random.Random(seed)
    modes = [random_scan_mode(rng) for _ in range(3000)]
    modes += ["custom:1e308:1e308", "custom:1:1e308", "custom:1e308:1e308:1", "custom:inf:inf"]
    accepted = 0
    for mode in modes:
        try:
            window, interval = scan_window_params(mode)
        except ShardcastError:
            with pytest.raises(ShardcastError):
                SimConfig(SchemeParams(3, 5), scan_mode=mode)
            continue
        # An accepted mode has whole-tick windows the simulator can round.
        assert 0 < window <= interval and math.isfinite(interval / TICK_S), mode
        assert 1 <= to_ticks(window) <= to_ticks(interval), mode
        assert SimConfig(SchemeParams(3, 5), scan_mode=mode).scan_mode == mode
        accepted += 1
    assert 100 < accepted < len(modes) - 100, accepted
