"""Broadcast scheduling: slots, cycles, expiry, and address rotation."""

import math
import re

import pytest

from shardcast.broadcaster import (
    ADV_MAX_S,
    ADV_MIN_S,
    TICK_S,
    BroadcastConfig,
    Broadcaster,
    to_ticks,
)
from shardcast.errors import InvalidConfig
from shardcast.identity import identifier_new
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams, recover

CHI2_CRIT_DF23_P01 = 41.638

MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


def make_device(seed=4, k=3, n=5, t_share=5.0, adv=1.0, expiry=None, start=0.0):
    rng = RandomSource(seed)
    config = BroadcastConfig(SchemeParams(k, n), t_share=t_share, adv_interval=adv, expiry=expiry)
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
        BroadcastConfig(params, expiry=0.0)
    with pytest.raises(ValueError):
        BroadcastConfig(params, t_share=0)


def test_expiry_must_cover_a_tick():
    params = SchemeParams(3, 5)
    assert make_device(expiry=TICK_S).emissions_before(0.01)  # one tick is enough
    for expiry in (0.0001, math.inf, math.nan):  # under one tick, or no tick count
        with pytest.raises(InvalidConfig) as info:
            BroadcastConfig(params, expiry=expiry)
        assert info.value.fields == ("expiry",)


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


def test_expiry_regenerates_mid_cycle():
    # Expiry shorter than a full cycle forces regeneration before all n
    # shares have aired; the boundary is inclusive.
    device = make_device(seed=5, t_share=5.0, adv=1.0, n=5, k=3, expiry=12.0)
    emissions = device.emissions_before(24.0)
    gen_at = {e.t: e.generation for e in emissions}
    assert gen_at[11.0] == 0
    assert gen_at[12.0] == 1  # regenerated exactly at the expiry instant
    assert gen_at[23.0] == 1
    gen0_ids = {e.share.share_id for e in emissions if e.generation == 0}
    assert len(gen0_ids) == 3  # only slots 0..2 aired before expiry


def test_expiry_equal_to_cycle_is_single_boundary():
    device = make_device(seed=5, t_share=1.0, adv=1.0, n=5, k=3, expiry=5.0)
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


def test_sighting_row_projection():
    device = make_device(seed=3)
    emission = device.emissions_before(1.0)[0]
    row = emission.sighting_row("edge-1", -70)
    assert row == (0, emission.mac_token, "edge-1", -70)


def test_tick_grid_arithmetic():
    assert to_ticks(0.000625) == 1
    assert to_ticks(1.0) == 1600
    assert to_ticks(10.24) == 16384
    assert TICK_S == 0.000625
