"""Scanner-side reconstruction search: recovery, consumption, budgets."""

import itertools
import math

import pytest

from shardcast.identity import Share, identifier_new, identifier_verify
from shardcast.reconstructor import (
    ReceivedShare,
    Reconstructor,
    complementary_id_sets,
    default_max_tries,
    estimate_search_space,
    expected_tries,
)
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams, split


def device_shares(rng, params, mac):
    """One device's full generation as ReceivedShare entries."""
    identifier = identifier_new(rng)
    entries = [
        ReceivedShare(Share(sid, body), mac, 0.0)
        for sid, body in split(identifier, params, rng)
    ]
    return identifier, entries


def test_single_device_recovers_on_kth_share():
    params = SchemeParams(3, 5)
    rng = RandomSource(51)
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(1))
    assert recon.on_share_received(entries[0]) == []
    assert recon.on_share_received(entries[1]) == []
    assert recon.on_share_received(entries[2]) == [identifier]
    # One candidate was enough: the only k c stahle shares are the right ones.
    assert recon.total_tries == 1
    assert recon.report().shares_consumed == 3
    assert recon.report().shares_remaining == 0


def test_duplicate_receptions_do_not_enter_pool():
    params = SchemeParams(3, 5)
    rng = RandomSource(53)
    _, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(3))
    assert recon.add_share(entries[0])
    assert not recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 99.0))
    assert recon.pool_size == 1
    # A different mac token is a different pool entry.
    assert recon.add_share(ReceivedShare(entries[0].share, "bb:bb:bb:bb:bb:bb", 0.0))
    assert recon.pool_size == 2


def test_completeness_on_mixed_pools():
    # All devices of a complete mixed pool are recovered with a huge
    # budget, every recovered value passes verification, and recovered
    # equals injected.
    for m in (2, 5, 8):
        params = SchemeParams(3, 5)
        rng = RandomSource(600 + m)
        wanted = []
        recon = Reconstructor(params, RandomSource(6000 + m), max_tries=1_000_000)
        for d in range(m):
            identifier, entries = device_shares(rng, params, f"{d:02x}:00:00:00:00:00")
            wanted.append(identifier)
            for entry in entries:
                recon.add_share(entry)
        got = []
        for _ in range(m):
            hit = recon.run(now=0.0)
            assert hit is not None
            assert identifier_verify(hit.identifier)
            got.append(hit.identifier)
        assert sorted(got) == sorted(wanted)
        # Two unconsumed shares per device remain: below threshold, so a
        # further (small-budget) run must come back empty.
        assert recon.report().shares_remaining == m * 5 - m * 3
        assert recon.run(now=0.0, budget=2_000) is None


def test_consumed_shares_never_reappear():
    params = SchemeParams(2, 4)
    rng = RandomSource(55)
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(5))
    recon.add_share(entries[0])
    recon.add_share(entries[1])
    hit = recon.run(0.0)
    assert hit is not None
    consumed_keys = {entry.key for entry in hit.sources}
    assert {e.key for e in recon.pool_entries()}.isdisjoint(consumed_keys)
    # Re-hearing a consumed share must not re-open the recovery.
    assert not recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 5.0))
    assert recon.pool_size == 0


def test_budget_limits_tries_per_run():
    # A two-device mixed pool with a tiny budget: the run stops without
    # recovery and the try counter respects the cap exactly.
    params = SchemeParams(4, 6)
    rng = RandomSource(56)
    recon = Reconstructor(params, RandomSource(99), max_tries=1)
    for d in range(4):
        _, entries = device_shares(rng, params, f"{d:02x}:11:11:11:11:11")
        for entry in entries[:4]:
            recon.add_share(entry)
    before = recon.total_tries
    hit = recon.run(0.0)
    assert recon.total_tries - before <= 1
    if hit is None:
        assert len(recon.recovered) == 0
    assert recon.run(0.0, budget=0) is None


def test_candidate_persists_across_invocations():
    # With a pool below k distinct ids nothing can complete, but partial
    # candidate state survives; once the missing id arrives recovery lands.
    params = SchemeParams(3, 5)
    rng = RandomSource(57)
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(7))
    recon.add_share(entries[0])
    recon.add_share(entries[1])
    assert recon.run(0.0) is None  # guard: fewer than k distinct ids
    assert recon.on_share_received(entries[2]) == [identifier]


def test_eviction_by_age_and_readmission():
    params = SchemeParams(3, 5)
    rng = RandomSource(58)
    _, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(8), max_share_age=10.0)
    recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 0.0))
    recon.add_share(ReceivedShare(entries[1].share, entries[1].mac_token, 8.0))
    assert recon.evict_stale(10.0) == 0  # age 10 is not older than the limit
    assert recon.evict_stale(10.5) == 1
    assert recon.pool_size == 1
    # An evicted share heard again is admitted as fresh.
    assert recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 11.0))
    assert recon.pool_size == 2


def test_eviction_repairs_candidate():
    params = SchemeParams(3, 5)
    rng = RandomSource(59)
    _, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(9), max_share_age=5.0)
    recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 0.0))
    recon.add_share(ReceivedShare(entries[1].share, entries[1].mac_token, 0.0))
    recon.run(0.0)  # builds a partial candidate from the two shares
    recon.evict_stale(20.0)  # both aged out, candidate must not hold ghosts
    assert recon.pool_size == 0
    identifier, fresh = device_shares(rng, params, "cc:cc:cc:cc:cc:cc")
    results = []
    for entry in fresh[:3]:
        results += recon.on_share_received(ReceivedShare(entry.share, entry.mac_token, 21.0))
    assert results == [identifier]


def test_group_by_mac_recovers_per_device():
    params = SchemeParams(3, 5)
    rng = RandomSource(60)
    recon = Reconstructor(params, RandomSource(10), group_by_mac=True)
    wanted = []
    for d in range(3):
        identifier, entries = device_shares(rng, params, f"{d:02x}:22:22:22:22:22")
        wanted.append(identifier)
        for entry in entries:
            recon.add_share(entry)
    got = []
    while True:
        hit = recon.run(0.0)
        if hit is None:
            break
        got.append(hit.identifier)
        # Grouping means every candidate stayed within one address.
        assert len({e.mac_token for e in hit.sources}) == 1
    assert sorted(got) == sorted(wanted)


def test_search_space_estimate_literal_values():
    # The closed-form estimator is reproduced exactly as published,
    # including its sign anomaly at low densities; simulation is the
    # ground truth for attempt counts, not this formula.
    assert estimate_search_space(1, SchemeParams(3, 5)) == pytest.approx(-0.5)
    assert estimate_search_space(2, SchemeParams(3, 5)) == pytest.approx(-9.4)
    # The denominator M*n - k*n vanishes exactly when M equals k.
    with pytest.raises(ZeroDivisionError):
        estimate_search_space(3, SchemeParams(3, 3))
    with pytest.raises(ZeroDivisionError):
        estimate_search_space(4, SchemeParams(4, 4))
    with pytest.raises(ZeroDivisionError):
        estimate_search_space(3, SchemeParams(3, 5))
    # M=1 with k=n stays finite under the formula as written.
    assert estimate_search_space(1, SchemeParams(3, 3)) == pytest.approx(-0.5)


def test_expected_tries_budget_model():
    params = SchemeParams(3, 5)
    assert expected_tries(params, 1) == pytest.approx(1.0)
    values = [expected_tries(params, m) for m in (1, 2, 3, 5, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # Matches the published per-density costs to first order.
    assert expected_tries(SchemeParams(4, 5), 5) == pytest.approx(56, rel=0.25)
    assert expected_tries(SchemeParams(5, 6), 8) == pytest.approx(1553, rel=0.25)
    for m in (1, 3, 9):
        budget = default_max_tries(params, m)
        assert budget == 10 * math.ceil(expected_tries(params, m))


def test_complementary_id_sets():
    sets35 = complementary_id_sets(SchemeParams(3, 4))
    assert sets35 == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert complementary_id_sets(SchemeParams(4, 4)) == [(1, 2, 3, 4)]
    for n in range(2, 8):
        for k in range(2, n + 1):
            got = complementary_id_sets(SchemeParams(k, n))
            assert len(got) == math.comb(n, k)
            assert got == sorted(set(got))
            assert all(len(s) == k and all(1 <= x <= n for x in s) for s in got)


def test_report_line_round_trip():
    params = SchemeParams(2, 3)
    rng = RandomSource(61)
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(11))
    for entry in entries[:2]:
        recon.on_share_received(entry)
    report = recon.report()
    assert report.identifiers_recovered == 1
    assert report.shares_consumed == 2
    line = report.to_line()
    assert str(report.total_tries) in line
    assert "1" in line


def test_incompatible_pool_does_not_loop_forever():
    # Fewer than k distinct ids: run must return promptly with no result.
    params = SchemeParams(4, 6)
    rng = RandomSource(62)
    _, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(12))
    for entry in entries[:3]:
        recon.add_share(entry)
    assert recon.run(0.0, budget=10_000) is None
    assert recon.total_tries == 0
