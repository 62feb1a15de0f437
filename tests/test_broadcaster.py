"""Broadcast scheduling: slots, one generation per cycle, address rotation,
and the seconds-to-ticks rule at every entry point."""

import hashlib
import math
import re

import pytest

from shardcast.broadcaster import (
    ADV_MAX_S,
    ADV_MIN_S,
    TICK_S,
    BeaconEmission,
    BroadcastConfig,
    Broadcaster,
    to_ticks,
)
from shardcast.errors import BadLength, InvalidConfig
from shardcast.identity import identifier_new
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams, recover

CHI2_CRIT_DF23_P01 = 41.638

MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


def make_device(seed=4, k=3, n=5, t_share=5.0, adv=1.0, start=0.0):
    rng = RandomSource(seed)
    config = BroadcastConfig(SchemeParams(k, n), t_share=t_share, adv_interval=adv)
    return Broadcaster(identifier_new(rng), config, rng, start=start)


def test_config_validation():
    params = SchemeParams(3, 5)
    BroadcastConfig(params, t_share=5.0, adv_interval=1.0)
    BroadcastConfig(params, t_share=10.24, adv_interval=ADV_MAX_S)
    BroadcastConfig(params, t_share=5.0, adv_interval=ADV_MIN_S)
    with pytest.raises(ValueError):
        BroadcastConfig(params, adv_interval=0.019)  # below the floor
    with pytest.raises(ValueError):
        BroadcastConfig(params, t_share=20.0, adv_interval=10.2405)  # off the tick grid
    with pytest.raises(ValueError):
        BroadcastConfig(params, t_share=20.0, adv_interval=10.48)  # above the cap
    with pytest.raises(ValueError):
        BroadcastConfig(params, t_share=0.5, adv_interval=1.0)  # longer than a slot
    with pytest.raises(ValueError):
        BroadcastConfig(params, t_share=0)


def test_t_share_must_lie_on_the_tick_grid():
    params = SchemeParams(3, 5)
    BroadcastConfig(params, t_share=1.000625, adv_interval=1.0)  # 1601 ticks
    for t_share in (1.0003, 5.0001):
        with pytest.raises(InvalidConfig) as info:
            BroadcastConfig(params, t_share=t_share, adv_interval=1.0)
        assert info.value.fields == ("t_share",)
        assert "0.000625" in str(info.value)


def test_cycle_must_have_a_finite_tick_count():
    # 1e305 s is a finite tick count, but a cycle of 255 such slots is not.
    with pytest.raises(InvalidConfig) as info:
        BroadcastConfig(SchemeParams(3, 255), t_share=1e305)
    assert info.value.fields == ("t_share",)


@pytest.mark.parametrize(
    "n, t_share, message",
    [(3, 0.0001, "t_share 0.0001 is not a multiple of 0.000625 s"),
     (255, 1e306, "t_share 1e+306 s has no finite tick count"),
     (5, 1e307, "t_share 1e+307 s has no finite tick count"),
     (255, 1e305, "a cycle of 255 slots of 1e+305 s has no finite tick count"),
     (5, 1e-320, "t_share 1e-320 s is less than one 0.000625 s tick")],
)
def test_a_bad_t_share_is_named_as_given(n, t_share, message):
    # The cycle check ran first, and named n * t_share or called 0.0001 not positive.
    with pytest.raises(InvalidConfig) as info:
        BroadcastConfig(SchemeParams(3, n), t_share=t_share)
    assert str(info.value) == message
    assert info.value.fields == ("t_share",)


@pytest.mark.parametrize("length", [15, 17])
def test_identifier_length_is_checked_at_construction(length):
    config = BroadcastConfig(SchemeParams(3, 5))
    with pytest.raises(BadLength):
        Broadcaster(bytes(length), config, RandomSource(1))


def test_one_share_per_slot_walk():
    device = make_device(t_share=5.0, adv=1.0, n=5, k=3)
    emissions = device.emissions_before(25.0)
    assert len(emissions) == 25
    assert [e.t for e in emissions] == [float(i) for i in range(25)]
    # Within each 5 s slot every beacon carries the same single share.
    for slot in range(5):
        ids = {e.share.share_id for e in emissions[slot * 5 : (slot + 1) * 5]}
        assert len(ids) == 1
    # Across the cycle all n distinct shares appear.
    assert {e.share.share_id for e in emissions} == {1, 2, 3, 4, 5}
    assert all(e.generation == 0 for e in emissions)


def test_emitted_shares_recover_identifier():
    device = make_device(seed=10)
    emissions = device.emissions_before(25.0)
    by_id = {}
    for e in emissions:
        by_id[e.share.share_id] = e.share.body
    subset = [(sid, by_id[sid]) for sid in (1, 3, 5)]
    assert recover(subset, 3) == device.identifier


def test_emission_count_tracks_horizon():
    for seed, adv, horizon in [(1, 1.0, 30.0), (2, 0.5, 12.5), (3, 0.1, 7.0), (4, 2.5, 60.0)]:
        device = make_device(seed=seed, t_share=5.0, adv=adv)
        count = len(device.emissions_before(horizon))
        assert abs(count - math.floor(horizon / adv)) <= 1


def test_new_cycle_reshuffles_and_resplits():
    device = make_device(seed=6, t_share=1.0, adv=1.0, n=5, k=3)
    emissions = device.emissions_before(15.0)  # three full cycles
    cycles = [emissions[i * 5 : (i + 1) * 5] for i in range(3)]
    for gen, cycle in enumerate(cycles):
        assert {e.generation for e in cycle} == {gen}
        assert {e.share.share_id for e in cycle} == {1, 2, 3, 4, 5}
    # Fresh split: bodies for the same share id differ between generations.
    first = {e.share.share_id: e.share.body for e in cycles[0]}
    second = {e.share.share_id: e.share.body for e in cycles[1]}
    assert any(first[sid] != second[sid] for sid in first)


def test_mac_token_rotates_each_generation_and_is_well_formed():
    device = make_device(seed=8, t_share=1.0, adv=1.0, n=3, k=2)
    emissions = device.emissions_before(3.0 * 200)
    macs = {}
    for e in emissions:
        macs.setdefault(e.generation, set()).add(e.mac_token)
    # One address per generation, all distinct, all in colon-hex form
    # with the top two bits of the first byte clear.
    assert all(len(tokens) == 1 for tokens in macs.values())
    all_macs = [next(iter(tokens)) for tokens in macs.values()]
    assert len(set(all_macs)) == len(all_macs) == 200
    for mac in all_macs:
        assert MAC_RE.match(mac)
        assert int(mac.split(":")[0], 16) <= 0x3F


def test_mac_tokens_unique_over_many_generations():
    device = make_device(seed=12, t_share=1.0, adv=1.0, n=2, k=2)
    emissions = device.emissions_before(2.0 * 10_000)
    macs = {e.mac_token for e in emissions}
    assert len(macs) == 10_000


def test_cycle_order_is_uniform_permutation():
    # Slot order of share ids over many cycles: chi-squared over the 4! = 24
    # orderings of n=4, df=23, critical value at p=0.01.
    device = make_device(seed=77, t_share=1.0, adv=1.0, n=4, k=2)
    emissions = device.emissions_before(4.0 * 10_000)
    counts = {}
    for c in range(10_000):
        order = tuple(e.share.share_id for e in emissions[c * 4 : (c + 1) * 4])
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 24
    expected = 10_000 / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF23_P01, chi2


def test_expiry_equal_to_cycle_is_single_boundary():
    # A generation is one cycle: it ends after n slots, inclusive.
    device = make_device(seed=5, t_share=1.0, adv=1.0, n=5, k=3)
    emissions = device.emissions_before(10.0)
    assert {e.generation for e in emissions[:5]} == {0}
    assert {e.generation for e in emissions[5:]} == {1}


def test_phase_offset_shifts_schedule():
    device = make_device(seed=9, start=0.125)
    emissions = device.emissions_before(10.0)
    assert emissions[0].t == 0.125
    assert emissions[1].t == 1.125


def test_trace_device_deterministic():
    def trace(seed):
        device = make_device(seed=seed, t_share=1.0, adv=0.5)
        return device.identifier, device.emissions_before(20.0)

    one_id, one = trace(404)
    two_id, two = trace(404)
    other_id, _ = trace(405)
    assert one_id == two_id
    assert [(e.t, e.share, e.mac_token) for e in one] == [(e.t, e.share, e.mac_token) for e in two]
    assert one_id != other_id


def test_emissions_before_is_strict():
    device = make_device(seed=2, t_share=1.0, adv=1.0)
    emissions = device.emissions_before(3.0)
    assert [e.t for e in emissions] == [0.0, 1.0, 2.0]
    # tick(now) includes a beacon at now.
    ticked = make_device(seed=2, t_share=1.0, adv=1.0).tick(3.0)
    assert [e.t for e in ticked] == [0.0, 1.0, 2.0, 3.0]


# sha256 of every emission and of the stream's next draw. Keys:
# (k, n, t_share, adv_interval, start, horizon). Cases 0, 2 and 3 were
# recorded before the broadcaster skipped its boundary check between
# boundaries, cases 1, 4, 5 and 6 at the last schedule that had a share-set
# expiry setting, with none set.
EMISSION_DIGESTS = {
    (3, 5, 5.0, 1.0, 0.0, 60.0):
        "27d18d33e6cc67e1509ef71ec9a03611b7ce103d1e61c8ccba36269984c4f878",
    (3, 5, 1.0, 0.1, 0.3125, 30.0):
        "99211127bbb378135618cfc8fdc0830adcd8ed7393fd542272500ccae7ffd8d7",
    (2, 3, 1.0, 0.02, 0.0, 20.0):  # recorded with a 7 s expiry, past the 3 s cycle
        "d7a663ed817e844b0f1342dafca61ad553c1fb5a27e6d769dc30c809334d0c8d",
    (4, 6, 0.2, 0.02, 0.05, 10.0):
        "f2ac1ec09def5588246c8edfec11f2e6e3a87fe365043dda16347e5fc2b24895",
    (2, 2, 0.5, 0.5, 0.125, 20.0):  # one beacon per slot
        "1a94c2f758f770b4e34aa8d0cf9d009994b720226675ab7af13f34b99a95b1af",
    (5, 6, 10.0, 1.0, 3.0, 300.0):
        "9c80f0423570d5ab0049205643ec7e6d32a1f6afa94ed12f48ffb58a9fa451c2",
    (3, 5, 2.0, 0.3, 0.0, 25.0):  # an advertising interval that does not divide the slot
        "f34eac80424f3c98fd912f3cd6359ee72ee4945e3f806b1e6cc22e6d8dbb56a6",
}


@pytest.mark.parametrize("case", list(EMISSION_DIGESTS))
def test_emission_schedule_is_pinned(case):
    k, n, t_share, adv, start, horizon = case
    rng = RandomSource(7)
    config = BroadcastConfig(SchemeParams(k, n), t_share, adv)
    device = Broadcaster(identifier_new(rng), config, rng, start=start)
    digest = hashlib.sha256()
    for e in device.emissions_before(horizon):
        row = (e.t, e.share.share_id, e.share.body, e.mac_token, e.generation)
        digest.update(repr(row).encode())
    digest.update(repr((device.generation, rng.getrandbits(64))).encode())
    assert digest.hexdigest() == EMISSION_DIGESTS[case]


@pytest.mark.parametrize("case", list(EMISSION_DIGESTS))
def test_tick_in_pieces_matches_one_call(case):
    k, n, t_share, adv, start, horizon = case
    whole = make_device(seed=11, k=k, n=n, t_share=t_share, adv=adv, start=start)
    expected = whole.emissions_before(horizon)
    device = make_device(seed=11, k=k, n=n, t_share=t_share, adv=adv, start=start)
    steps = RandomSource(len(expected))
    last = (to_ticks(horizon) - 1) * TICK_S
    now, got = 0.0, []
    while now < last:
        # Steps from under one tick to past several boundaries, and a look back.
        now = min(last, now + steps.random() * 3 * n * t_share)
        got += device.tick(now)
        got += device.tick(now - steps.random())
    got += device.tick(last)
    assert got == expected


@pytest.mark.parametrize("case", list(EMISSION_DIGESTS))
def test_runs_expand_to_emissions(case):
    k, n, t_share, adv, start, horizon = case
    by_runs = make_device(seed=7, k=k, n=n, t_share=t_share, adv=adv, start=start)
    by_beacons = make_device(seed=7, k=k, n=n, t_share=t_share, adv=adv, start=start)
    runs = by_runs.runs_before(horizon)
    adv_ticks = to_ticks(adv)
    expanded = [
        BeaconEmission(t * TICK_S, run.share, run.mac_token, run.generation)
        for run in runs
        for t in range(run.first_tick, run.end_tick, adv_ticks)
    ]
    assert expanded == by_beacons.emissions_before(horizon)
    assert all(run.first_tick < run.end_tick for run in runs)  # no empty run
    for run, after in zip(runs, runs[1:]):
        assert run.share is not after.share
        assert run.end_tick <= after.first_tick
    # Both walks leave the device in the same state.
    assert by_runs.generation == by_beacons.generation
    assert by_runs.runs_before(2 * horizon) == by_beacons.runs_before(2 * horizon)


def test_emissions_are_immutable():
    emission = make_device().emissions_before(1.0)[0]
    for field in ("t", "share", "mac_token", "generation"):
        with pytest.raises(AttributeError):
            setattr(emission, field, None)


def test_tick_grid_arithmetic():
    assert to_ticks(0.000625) == 1
    assert to_ticks(1.0) == 1600
    assert to_ticks(10.24) == 16384
    assert TICK_S == 0.000625


@pytest.mark.parametrize("seconds", [math.inf, -math.inf, math.nan, 1e308, -1e308])
def test_to_ticks_rejects_seconds_with_no_finite_tick_count(seconds):
    with pytest.raises(InvalidConfig) as info:
        to_ticks(seconds, "horizon")
    assert info.value.fields == ("horizon",)
    with pytest.raises(InvalidConfig) as info:
        to_ticks(seconds)
    assert info.value.fields == ("seconds",)


@pytest.mark.parametrize("seconds", [math.inf, -math.inf, math.nan, 1e308])
def test_entry_points_reject_seconds_with_no_finite_tick_count(seconds):
    with pytest.raises(InvalidConfig) as info:
        make_device(start=seconds)
    assert info.value.fields == ("start",)
    for call, field in (("runs_before", "horizon"), ("tick", "now"),
                        ("emissions_before", "horizon")):
        device = make_device()
        with pytest.raises(InvalidConfig) as info:
            getattr(device, call)(seconds)
        assert info.value.fields == (field,), call
        assert device.emissions_before(1.0) == make_device().emissions_before(1.0), call


@pytest.mark.parametrize("call,field,value", [("start", "start", "5"),
                                              ("runs_before", "horizon", "5"),
                                              ("tick", "now", None),
                                              ("emissions_before", "horizon", "5")])
def test_entry_points_reject_seconds_that_are_not_a_number(call, field, value):
    with pytest.raises(InvalidConfig) as info:
        if call == "start":
            make_device(start=value)
        else:
            getattr(make_device(), call)(value)
    assert info.value.fields == (field,)
