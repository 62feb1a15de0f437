"""Scanner-side reconstruction search: recovery, consumption, budgets."""

import gc
import hashlib
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

import shardcast

from shardcast import kernel
from shardcast.errors import InvalidConfig, InvalidParams
from shardcast.gf256 import gf_inv
from shardcast.identity import Share, identifier_new, identifier_verify
from shardcast.reconstructor import (
    ReceivedShare,
    Reconstructor,
    _candidate_value,
    _syndrome_target,
    default_max_tries,
    estimate_search_space,
    expected_tries,
)
from shardcast.rng import RandomSource
from shardcast.shamir import SchemeParams, split

from oracles import crc32_ref, gf_lagrange_ref


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail a test that runs past 60 s, where SIGALRM exists: an unbudgeted
    search that never returns then fails its test instead of stalling the
    suite until the run-wide faulthandler timeout."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("test ran past 60 s; a search may never return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def test_duplicate_reception_skips_the_search():
    params = SchemeParams(3, 5)
    rng = RandomSource(53)
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(3))
    for entry in entries[:3]:
        assert recon.add_share(entry)
    # The pool could recover, but a repeat of a pooled share runs no search.
    repeat = ReceivedShare(entries[0].share, entries[0].mac_token, 1.0)
    assert recon.on_share_received(repeat) == []
    assert recon.total_tries == 0 and recon.pool_size == 3
    assert recon.on_share_received(entries[3]) == [identifier]


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


def test_a_returned_hit_is_freed_once_the_caller_drops_it():
    params = SchemeParams(3, 5)
    rng = RandomSource(31)
    recon = Reconstructor(params, RandomSource(32))
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    for entry in entries[:3]:
        recon.add_share(entry)
    hit = recon.run(0.0)
    assert hit.identifier == identifier
    freed = weakref.ref(hit)
    del hit
    gc.collect()
    assert freed() is None
    assert recon.report().identifiers_recovered == 1


def test_report_counts_the_hits_run_returns():
    # A seeded stream of whole and partial generations from four addresses,
    # with evictions and budgeted runs between receptions.
    params = SchemeParams(3, 5)
    rng = RandomSource(71)
    recon = Reconstructor(params, RandomSource(72), max_tries=40, max_share_age=6.0)
    hits = evicted = 0
    now = 0.0
    for d in range(40):
        _, entries = device_shares(rng, params, f"{d % 4:02x}")
        rng.shuffle(entries)
        for entry in entries[:2 + rng.randrange(4)]:
            now += 0.5
            evicted += recon.evict_stale(now)
            if recon.add_share(ReceivedShare(entry.share, entry.mac_token, now)):
                hits += recon.run(now) is not None
    report = recon.report()
    assert hits > 10 and evicted > 10, (hits, evicted)
    assert report.identifiers_recovered == recon.identifiers_recovered == hits
    assert report.shares_consumed == params.k * hits


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
        assert recon.identifiers_recovered == 0
    with pytest.raises(InvalidConfig):
        recon.run(0.0, budget=0)
    with pytest.raises(InvalidConfig):
        Reconstructor(params, RandomSource(99), max_tries=0)


def test_recovery_waits_for_kth_distinct_id():
    # With a pool below k distinct ids a run returns without drawing; once
    # the missing id arrives recovery lands.
    params = SchemeParams(3, 5)
    rng = RandomSource(57)
    identifier, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(7))
    recon.add_share(entries[0])
    recon.add_share(entries[1])
    assert recon.run(0.0) is None  # guard: fewer than k distinct ids
    assert recon.on_share_received(entries[2]) == [identifier]


@pytest.mark.parametrize("age", [-1.0, -math.inf, math.nan, "5", [5]])
def test_max_share_age_must_be_a_non_negative_time(age):
    with pytest.raises(InvalidConfig) as info:
        Reconstructor(SchemeParams(3, 5), RandomSource(1), max_share_age=age)
    assert info.value.fields == ("max_share_age",)
    # Zero keeps only shares heard at this very time; infinity never evicts.
    for fine in (0.0, math.inf):
        Reconstructor(SchemeParams(3, 5), RandomSource(1), max_share_age=fine)


@pytest.mark.parametrize("budget", [2.5, 1.0, math.inf, math.nan, "3"])
def test_max_tries_must_be_an_integer(budget):
    # A run stops when its tries equal the budget, so a budget that no try
    # count equals would never stop it.
    with pytest.raises(InvalidConfig) as info:
        Reconstructor(SchemeParams(3, 5), RandomSource(1), max_tries=budget)
    assert info.value.fields == ("max_tries",)
    recon = Reconstructor(SchemeParams(3, 5), RandomSource(1))
    with pytest.raises(InvalidConfig) as info:
        recon.run(0.0, budget)  # checked before the pool is
    assert info.value.fields == ("max_tries",)


def test_options_are_keyword_only():
    # The third positional parameter was once group_by_mac; an old call must
    # fail rather than set another option.
    with pytest.raises(TypeError):
        Reconstructor(SchemeParams(3, 5), RandomSource(1), 10)


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
    with pytest.raises(InvalidConfig) as info:
        recon.evict_stale("12")
    assert info.value.fields == ("now",)
    # An evicted share heard again is admitted as fresh.
    assert recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 11.0))
    assert recon.pool_size == 2


def test_aged_out_shares_leave_the_pool():
    params = SchemeParams(3, 5)
    rng = RandomSource(59)
    _, entries = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    recon = Reconstructor(params, RandomSource(9), max_share_age=5.0)
    recon.add_share(ReceivedShare(entries[0].share, entries[0].mac_token, 0.0))
    recon.add_share(ReceivedShare(entries[1].share, entries[1].mac_token, 0.0))
    recon.run(0.0)  # fewer than k shares: returns without drawing
    recon.evict_stale(20.0)  # both aged out; nothing of them may remain
    assert recon.pool_size == 0
    identifier, fresh = device_shares(rng, params, "cc:cc:cc:cc:cc:cc")
    results = []
    for entry in fresh[:3]:
        results += recon.on_share_received(ReceivedShare(entry.share, entry.mac_token, 21.0))
    assert results == [identifier]


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


@pytest.mark.parametrize("m", [0, 2.5, "3", None])
def test_expected_tries_needs_a_whole_device_count(m):
    for model in (expected_tries, default_max_tries):
        with pytest.raises(InvalidParams):
            model(SchemeParams(3, 5), m)


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


def test_a_candidate_may_take_entries_of_two_addresses():
    # Each address holds one share of X and one of Y, so every one-address
    # candidate fails, and only a pair across the two addresses verifies.
    params = SchemeParams(2, 3)
    rng = RandomSource(61)
    x = split(identifier_new(rng), params, rng)
    y = split(identifier_new(rng), params, rng)
    pool = [ReceivedShare(Share(*x[0]), "a", 0.0), ReceivedShare(Share(*y[1]), "a", 0.0),
            ReceivedShare(Share(*y[0]), "b", 0.0), ReceivedShare(Share(*x[1]), "b", 0.0)]
    recon = Reconstructor(params, RandomSource(13))
    for entry in pool:
        recon.add_share(entry)
    hit = recon.run(0.0)
    assert hit is not None and len({e.mac_token for e in hit.sources}) == 2


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


def oracle_pools(count):
    """(params, pool) pairs: k from 2 to 4, n up to 5, one to three addresses
    each heard in part, and in about a fifth of them one body re-sent under
    another id."""
    rng = random.Random(67)
    for i in range(count):
        k = rng.randint(2, 4)
        params = SchemeParams(k, rng.randint(k, 5))
        source = RandomSource(i)
        pool = []
        for mac in ("aa", "bb", "cc")[:rng.randint(1, 3)]:
            _, entries = device_shares(source, params, mac)
            pool += rng.sample(entries, rng.randint(1, params.n))
        if rng.random() < 0.2:
            twin = rng.choice(pool)
            others = [sid for sid in range(1, params.n + 1) if sid != twin.share.share_id]
            mac = rng.choice(pool).mac_token
            pool.append(ReceivedShare(Share(rng.choice(others), twin.share.body), mac, 0.0))
        rng.shuffle(pool)
        yield params, pool


def pool_verifies(params, pool, values):
    """Brute force: some k-subset of distinct ids interpolates to a value
    whose checksum verifies. ``values`` memoises interpolations by point set."""
    for group in itertools.combinations(pool, params.k):
        points = sorted((entry.share.share_id, entry.share.body) for entry in group)
        if len({x for x, _ in points}) < params.k:
            continue
        key = tuple(points)
        if key not in values:
            value = gf_lagrange_ref(points)
            values[key] = crc32_ref(value[:12]) == int.from_bytes(value[12:], "big")
        if values[key]:
            return True
    return False


def test_unbudgeted_run_recovers_exactly_when_some_subset_verifies():
    # The search's stop rule against brute force: a run without a budget
    # returns a hit exactly when some k-subset of the pool with distinct ids
    # verifies.
    outcomes = {False: 0, True: 0}
    for i, (params, pool) in enumerate(oracle_pools(400)):
        recon = Reconstructor(params, RandomSource(i))
        for entry in pool:
            assert recon.add_share(entry)
        hit = recon.run(0.0)
        values = {}
        expected = pool_verifies(params, pool, values)
        assert (hit is not None) == expected, (i, recon.total_tries)
        if hit is not None:
            assert pool_verifies(params, hit.sources, values)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 40, outcomes


def test_one_body_under_two_ids_is_an_ordinary_candidate():
    # At k = 2, entries with one body under ids 1 and 2 interpolate to that
    # body. When it is not an identifier every try fails and the run spends
    # its budget; when it is, the first try recovers it.
    identifier = identifier_new(RandomSource(68))
    corrupt = identifier[:-1] + bytes([identifier[-1] ^ 1])
    assert not identifier_verify(corrupt)
    for budget in (1, 2, 3, 5):
        recon = Reconstructor(SchemeParams(2, 3), RandomSource(budget))
        for sid in (1, 2):
            recon.add_share(ReceivedShare(Share(sid, corrupt), "t", 0.0))
        assert recon.run(0.0, budget) is None
        assert recon.total_tries == budget
        recon = Reconstructor(SchemeParams(2, 3), RandomSource(budget))
        for sid in (1, 2):
            recon.add_share(ReceivedShare(Share(sid, identifier), "t", 0.0))
        hit = recon.run(0.0, budget)
        assert hit is not None and hit.identifier == identifier
        assert hit.tries == recon.total_tries == 1 and recon.pool_size == 0


UNSATISFIABLE_POOL = textwrap.dedent("""
    from shardcast.identity import Share, identifier_new
    from shardcast.reconstructor import ReceivedShare, Reconstructor
    from shardcast.rng import RandomSource
    from shardcast.shamir import SchemeParams, split

    params = SchemeParams(3, 5)
    rng = RandomSource(1)
    id_a, id_b = identifier_new(rng), identifier_new(rng)
    a = [Share(*pair) for pair in split(id_a, params, rng)]
    b = [Share(*pair) for pair in split(id_b, params, rng)]
    recon = Reconstructor(params, RandomSource(2))
    found = []
    for mac, shares, ids in (("a", a, (1, 2)), ("b", b, (2, 3))):
        for sid in ids:
            found += recon.on_share_received(ReceivedShare(shares[sid - 1], mac, 0.0))
    # Four entries, three distinct ids: every candidate fills, none verifies,
    # and the run stops after C(4, 3) tries.
    assert found == [] and recon.total_tries == 4, (found, recon.total_tries)
    # Device a's third share completes it.
    assert recon.on_share_received(ReceivedShare(a[2], "a", 1.0)) == [id_a]
    # Two ids with one body, a share body and not an identifier: the one
    # candidate fails, and the run stops after C(2, 2) = 1 try.
    twin = Reconstructor(SchemeParams(2, 3), RandomSource(3))
    for sid in (1, 2):
        twin.add_share(ReceivedShare(Share(sid, a[0].body), "t", 0.0))
    assert twin.run(0.0) is None, "hit"
    assert twin.total_tries == 1, twin.total_tries
    print("returned")
""")


def test_unbudgeted_search_on_an_unsatisfiable_pool_returns():
    # A child process, so that a hang fails this test instead of stalling the suite.
    src = str(Path(shardcast.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", UNSATISFIABLE_POOL], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "returned\n"


# Hits and tries of unbudgeted runs on a satisfiable pool, recorded before the
# exhaustive check existed; 14 of the 60 seeds pass C(9, 3) = 84 tries.
PAST_THRESHOLD_DIGEST = "ab4587e6fd2e117ea391e62a08cd98097e3c8b2fcbcf6d5e6b70349122769557"


def test_satisfiable_pool_searched_past_the_threshold_is_unchanged():
    params = SchemeParams(3, 5)
    rng = RandomSource(64)
    devices = [device_shares(rng, params, mac) for mac in ("aa", "bb", "cc", "dd")]
    # Only device aa is complete; the others leave two shares each.
    (identifier, a), (_, b), (_, c), (_, d) = devices
    pool = a[:3] + b[:2] + c[2:4] + d[3:5]
    limit = math.comb(len(pool), params.k)
    digest = hashlib.sha256()
    past = 0
    for seed in range(60):
        recon = Reconstructor(params, RandomSource(seed))
        for entry in pool:
            recon.add_share(entry)
        hit = recon.run(0.0)
        assert hit is not None and hit.identifier == identifier
        past += recon.total_tries > limit
        digest.update(f"{seed} {hit.identifier.hex()} {recon.total_tries}\n".encode())
    assert past > 0
    assert digest.hexdigest() == PAST_THRESHOLD_DIGEST


def test_received_share_is_immutable():
    entry = ReceivedShare(Share(1, bytes(16)), "aa", 0.0)
    for field in ("share", "mac_token", "received_at"):
        with pytest.raises(AttributeError):
            setattr(entry, field, None)
    assert entry.key == ("aa", 1, bytes(16))


def test_stale_shortcut_tracks_the_oldest_entry_through_removals():
    params = SchemeParams(3, 5)
    rng = RandomSource(63)
    identifier, a = device_shares(rng, params, "aa:aa:aa:aa:aa:aa")
    _, b = device_shares(rng, params, "bb:bb:bb:bb:bb:bb")
    recon = Reconstructor(params, RandomSource(13), max_share_age=10.0)

    def admit(entry, t):
        assert recon.add_share(ReceivedShare(entry.share, entry.mac_token, t))

    def times():
        return sorted(entry.received_at for entry in recon.pool_entries())

    def check_oldest():
        # evict_stale returns at once when this time is not stale, so it must
        # never be newer than the oldest entry, nor lag behind a removal.
        assert recon._oldest == min(times(), default=math.inf)

    # Out of order: the oldest entries arrive last.
    for entry, t in ((b[0], 8.0), (a[0], 4.0), (b[1], 6.0), (a[1], 2.0), (a[2], 1.0)):
        admit(entry, t)
    check_oldest()

    # A recovery consumes device a's shares, the oldest among them.
    hit = recon.run(9.0)
    assert hit is not None and hit.identifier == identifier
    assert times() == [6.0, 8.0]
    check_oldest()
    assert recon.evict_stale(16.0) == 0  # cutoff 6.0: nothing is older

    # An eviction removes the oldest; each call evicts exactly the entries
    # older than its cutoff.
    admit(b[2], 7.5)
    for now, evicted, left in ((17.0, 1, [7.5, 8.0]), (17.5, 0, [7.5, 8.0]),
                               (18.0, 1, [8.0]), (18.0, 0, [8.0]), (30.0, 1, [])):
        assert recon.evict_stale(now) == evicted
        assert times() == left
        check_oldest()


@pytest.mark.parametrize("seed", [0, 1, 7, 1000, 2**40 + 3])
def test_index_draws_follow_randrange(seed):
    # The search draws pool indices with getrandbits, the way CPython's
    # Random.randrange(n) does; a change to randrange upstream must fail here
    # rather than silently change every search. Pools of 2 to 300 entries (a
    # search never draws from fewer than k >= 2); no pair of them verifies.
    params = SchemeParams(2, 5)
    rng = RandomSource(66)
    entries = [ReceivedShare(Share(1 + i % 5, rng.randbytes(16)), f"{i}", 0.0)
               for i in range(300)]
    for n in range(2, 301):
        source = RandomSource(seed)
        generator = source.getrandbits
        drawn = []

        def recording(bits):
            value = generator(bits)
            drawn.append((bits, value))
            return value

        source.getrandbits = recording
        recon = Reconstructor(params, source)
        for entry in entries[:n]:
            recon.add_share(entry)
        assert recon.run(0.0, budget=2) is None
        reference = random.Random(seed)
        indices = [value for bits, value in drawn if value < n]
        assert len(indices) == recon.total_draws > 0
        assert {bits for bits, _ in drawn} == {n.bit_length()}
        assert indices == [reference.randrange(n) for _ in indices]
        assert generator(64) == reference.getrandbits(64)


def test_total_draws_counts_index_draws():
    # Replaying total_draws randrange calls per run, at the pool size the run
    # started with, must leave a reference generator where the search's is.
    params = SchemeParams(3, 5)
    rng = RandomSource(65)
    recon = Reconstructor(params, RandomSource(14))
    for d in range(4):
        _, entries = device_shares(rng, params, f"{d:02x}")
        for entry in entries[:5 if d < 2 else 2]:
            recon.add_share(entry)
    reference = random.Random(14)
    for budget in (1, 7, None, None, None):
        size, before = recon.pool_size, recon.total_draws
        recon.run(0.0, budget)
        for _ in range(recon.total_draws - before):
            reference.randrange(size)
    assert recon.total_draws > 0 and recon.identifiers_recovered == 2
    assert recon._rng.getrandbits(64) == reference.getrandbits(64)


def _search_digest(check_state) -> str:
    """Hash of every search outcome over a grid of pools and budgets.

    Each scenario hears three devices twice over, with evictions between
    runs; device ``aa`` is heard in full when ``complete``, every other
    device leaves k - 1 shares. ``check_state(recon)`` runs after every
    change to the pool.
    """
    digest = hashlib.sha256()
    for k, n in ((2, 3), (3, 5), (4, 6), (6, 7)):
        params = SchemeParams(k, n)
        for complete, budget in itertools.product((False, True), (None, 1, 7, 130)):
            # The trailing False is the label the digest was recorded with.
            label = f"{k} {n} {complete} {budget} False"
            rng = RandomSource(k * 100 + n)
            heard = []
            for mac in ("aa", "bb", "cc"):
                _, entries = device_shares(rng, params, mac)
                rng.shuffle(entries)
                heard.append(entries[:n if complete and mac == "aa" else k - 1])
            # The complete device comes last, so a window can hold all of it.
            heard = heard[1] + heard[2] + heard[0]
            search_rng = RandomSource(len(heard) + 17 * budget if budget else 5)
            recon = Reconstructor(params, search_rng, max_share_age=0.25 * (n + 2))
            now = 0.0
            for _ in range(2):
                for entry in heard:
                    now += 0.25
                    if recon.evict_stale(now):
                        check_state(recon)
                    if recon.add_share(ReceivedShare(entry.share, entry.mac_token, now)):
                        check_state(recon)
                    hit = recon.run(now, budget)
                    if hit is not None:
                        check_state(recon)
                        keys = [source.key for source in hit.sources]
                        digest.update(f"{label} hit {hit.identifier.hex()} {hit.completed_at}"
                                      f" {hit.tries} {keys}\n".encode())
                    digest.update(f"{label} {recon.total_tries} {recon.pool_size}\n".encode())
            digest.update(f"{label} next {search_rng.getrandbits(64)}\n".encode())
    return digest.hexdigest()


# Recorded while the search could still carry a candidate from one run into
# the next, before the candidate became local to Reconstructor.run.
SEARCH_DIGEST = "740fc9f713bdad501447ce9b5bfff61e2b484bfc5ffd91aa7a8e4086549529a4"


def test_search_outcomes_are_pinned():
    def check_state(recon):
        assert recon._oldest == min((entry.received_at for entry in recon._pool),
                                    default=math.inf)

    assert _search_digest(check_state) == SEARCH_DIGEST


def syndrome_candidates(k, rng):
    """(x-set, bodies, kind) candidates of k members with x-coordinates in
    1..255: real share sets, random bodies, and mixed-device sets whose last
    body is solved so that their interpolation is a valid identifier."""
    source = RandomSource(rng.getrandbits(32))

    def real_bodies(xs):
        coeffs = source.randbytes(16 * (k - 1))
        bodies = kernel.split_secret(identifier_new(source), k, 255, coeffs)
        return [bodies[x - 1] for x in xs]

    for i in range(300):
        xs = rng.sample(range(1, 256), k)
        kind = ("real", "random", "crafted")[i % 3]
        if kind == "real":
            bodies = real_bodies(xs)
        elif kind == "random":
            bodies = [rng.randbytes(16) for _ in xs]
        else:
            # Members from two devices; the last one is solved for.
            first, second = real_bodies(xs), real_bodies(xs)
            bodies = [(first, second)[j % 2][j] for j in range(k - 1)]
            weights = kernel.weights_by_x(bytes(sorted(xs)))
            rest = int.from_bytes(identifier_new(source), "big")
            for x, body in zip(xs, bodies):
                rest ^= int.from_bytes(body.translate(kernel.MUL[weights[x]]), "big")
            inverse = kernel.MUL[gf_inv(weights[xs[-1]])]
            bodies.append(rest.to_bytes(16, "big").translate(inverse))
        yield xs, bodies, kind


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_syndrome_test_matches_interpolate_and_verify(k):
    # The search's candidate test against the definition: interpolate at
    # x=0, then verify the checksum. One memo serves every candidate, as it
    # serves every try of a run, and each candidate is tested twice.
    rng = random.Random(k)
    memo = {}
    passes = {"real": 0, "random": 0, "crafted": 0}
    swapped_mismatches = 0
    for xs, bodies, kind in syndrome_candidates(k, rng):
        members = dict(zip(xs, bodies))
        value = kernel.recover_secret(bytes(xs), b"".join(bodies))
        verifies = identifier_verify(value)
        for _ in range(2):
            got = _candidate_value(members, memo, _syndrome_target(k))
            assert (got is not None) == verifies, (kind, xs)
            assert got is None or got == value
        passes[kind] += verifies
        swapped = _candidate_value(members, memo, _syndrome_target(k + 1))
        swapped_mismatches += (swapped is not None) != verifies
    assert passes == {"real": 100, "random": 0, "crafted": 100}
    # The even/odd target matters: with the other parity's target, no
    # verifying candidate passes.
    assert swapped_mismatches == 200
